// Genome-keyed objective memoization shared by the evaluation engine.
//
// The parallel-GA models duplicate genomes constantly — elites copied
// unchanged into every generation, migrants cloned across islands and
// cluster ranks, crossover-skipped children that are verbatim parent
// copies. Each duplicate re-runs a full schedule decode today. EvalCache
// memoizes objective values by a well-mixed 64-bit key so the Evaluator
// decodes each distinct genome once.
//
// Keys. The Evaluator keys entries with EvalCache::key — a four-lane
// multiply-rotate hash over packed words, several times cheaper than
// genome_hash's one-mixer-per-element chain. genome_hash stays the
// stable identity of a genome (golden traces, session plan hashes);
// EvalCache::key is an in-memory key only and is never persisted. The
// table itself takes any 64-bit key: lookup/insert are explicit-key.
//
// Correctness over trust-the-key: every entry stores the genome itself
// and a lookup only hits when the stored genome compares equal, so a
// 64-bit collision degrades to a miss (and the colliding insert replaces
// the entry) instead of silently returning a wrong objective. Cached
// values are produced by the same pure objective functions, so traces
// are bit-identical with the cache on or off.
//
// Layout. The table is sharded by the key's high 32 bits; each shard
// owns a mutex, a dense vector of slots {key, genome, objective, LRU
// prev/next} and an open-addressing index of int32 slot numbers (linear
// probing, backward-shift deletion, doubled at load 1/2, starting at 16
// entries so building a cache costs no more than an empty map). Slots are
// only ever appended: eviction rewrites the least-recently-used slot in
// place, so the victim's genome buffer is reused by copy-assignment and
// an insert into a full table allocates nothing. Shards are cache-line
// aligned so lanes hammering different shards do not share lock lines.
//
// Batches. lookup_many/insert_many take each shard's lock at most once
// per call and visit a shard's items in index order; shards are
// independent, so results, counters and LRU order equal a one-at-a-time
// loop. lookup/insert are the one-item forms of the same locked code.
// Counters are exact: every looked-up genome is one hit or one miss.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/ga/genome.h"

namespace psga::ga {

/// Memoization policy (GaConfig::eval_cache, spec token `eval_cache=`).
enum class EvalCacheMode {
  kOff,        ///< no cache: every evaluation decodes
  kUnbounded,  ///< memoize everything, never evict
  kLru,        ///< bounded: evict the least-recently-used entries
};

struct EvalCacheConfig {
  EvalCacheMode mode = EvalCacheMode::kOff;
  /// Total entry budget across all shards (kLru only).
  std::size_t capacity = 1 << 16;
  /// Lock shards; clamped to >= 1. The default is plenty below ~32 lanes.
  int shards = 8;

  /// Semantic equality: fields that cannot affect behavior under `mode`
  /// (everything for kOff, capacity for kUnbounded) are ignored, so the
  /// SolverSpec round-trip contract holds for every reachable state.
  friend bool operator==(const EvalCacheConfig& a, const EvalCacheConfig& b) {
    if (a.mode != b.mode) return false;
    if (a.mode == EvalCacheMode::kOff) return true;
    if (a.shards != b.shards) return false;
    return a.mode != EvalCacheMode::kLru || a.capacity == b.capacity;
  }
};

/// Exact lifetime counters, aggregated over shards (RunResult::cache).
struct EvalCacheStats {
  long long hits = 0;       ///< lookups answered from the table
  long long misses = 0;     ///< lookups that had to decode
  long long inserts = 0;    ///< entries written (incl. collision rewrites)
  long long evictions = 0;  ///< entries dropped by the LRU bound

  /// Counter subtraction — per-run deltas from lifetime snapshots.
  EvalCacheStats& operator-=(const EvalCacheStats& other) {
    hits -= other.hits;
    misses -= other.misses;
    inserts -= other.inserts;
    evictions -= other.evictions;
    return *this;
  }
};

class EvalCache;
using EvalCachePtr = std::shared_ptr<EvalCache>;

class EvalCache {
 public:
  explicit EvalCache(EvalCacheConfig config);
  ~EvalCache();

  /// The one construction idiom every engine uses: a pre-built shared
  /// cache wins, otherwise `config` decides between a fresh cache and
  /// none at all.
  static EvalCachePtr make(const EvalCacheConfig& config,
                           EvalCachePtr shared = nullptr) {
    if (shared != nullptr) return shared;
    if (config.mode == EvalCacheMode::kOff) return nullptr;
    return std::make_shared<EvalCache>(config);
  }

  /// The cache key of `genome`: four independent multiply-rotate lanes
  /// over the chromosomes packed into 64-bit words, each chromosome
  /// length-prefixed, folded by a splitmix64 finalizer. Equal genomes
  /// key equal; the value is host-specific (byte order) and must not be
  /// persisted — genome_hash is the stable identity.
  static std::uint64_t key(const Genome& genome) noexcept;

  /// Memoized objective of `genome` (stored under `key`), or nullopt. A
  /// key match with a different stored genome is a miss.
  std::optional<double> lookup(std::uint64_t key, const Genome& genome);

  /// Records `objective` for `genome`. A colliding entry (same key,
  /// different genome) is replaced; an equal entry is refreshed in place.
  void insert(std::uint64_t key, const Genome& genome, double objective);

  /// Batched lookup: for every i, hit[i] = 1 and out[i] = the memoized
  /// objective on a hit, hit[i] = 0 (out[i] untouched) on a miss. Returns
  /// the hit count. Same results, counters and LRU order as calling
  /// lookup() for i = 0, 1, ...; each shard is locked at most once.
  std::size_t lookup_many(std::span<const std::uint64_t> keys,
                          std::span<const Genome> genomes,
                          std::span<double> out,
                          std::span<std::uint8_t> hit);

  /// Batched insert, equal to calling insert() for i = 0, 1, ...; each
  /// shard is locked at most once.
  void insert_many(std::span<const std::uint64_t> keys,
                   std::span<const Genome> genomes,
                   std::span<const double> values);

  EvalCacheStats stats() const;
  /// Entries currently stored (sums the shards).
  std::size_t size() const;
  const EvalCacheConfig& config() const { return config_; }

 private:
  /// Slots, index and LRU links of one lock domain (eval_cache.cpp).
  struct Shard;

  std::size_t shard_of(std::uint64_t key) const noexcept {
    // High bits pick the shard; the index probes on a remix of the full
    // key, so both stay uniform.
    return static_cast<std::uint32_t>(key >> 32) % shard_count_;
  }
  /// Calls visit(shard, i) for every item, grouped by shard with one
  /// lock per shard and index order within it.
  template <typename Visit>
  void for_each_locked(std::span<const std::uint64_t> keys, Visit&& visit);

  EvalCacheConfig config_;
  bool lru_;                    ///< mode == kLru
  std::size_t shard_capacity_;  ///< per-shard entry bound (kLru)
  std::uint32_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace psga::ga
