#include "src/ga/eval_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>

namespace psga::ga {

namespace {

constexpr std::int32_t kEmpty = -1;
constexpr int kInitialIndexBits = 4;  ///< 16 index entries per new shard

// --- cache key ---------------------------------------------------------------

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;

/// One multiply-rotate step of a lane: a bijection of `acc` for a fixed
/// word and of the word for a fixed `acc`.
constexpr std::uint64_t absorb(std::uint64_t acc, std::uint64_t word) noexcept {
  acc += word * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

std::uint32_t load32(const unsigned char* p) noexcept {
  std::uint32_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Feeds `bytes` (a multiple of 4) into the lanes: 64-bit word j goes to
/// lane j % 4, and a trailing 4-byte half word to the next lane. The
/// chromosome lengths, absorbed first, make the split unambiguous.
void absorb_bytes(std::uint64_t (&lane)[4], const void* data,
                  std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; bytes >= 32; p += 32, bytes -= 32) {
    lane[0] = absorb(lane[0], load64(p));
    lane[1] = absorb(lane[1], load64(p + 8));
    lane[2] = absorb(lane[2], load64(p + 16));
    lane[3] = absorb(lane[3], load64(p + 24));
  }
  std::size_t l = 0;
  for (; bytes >= 8; p += 8, bytes -= 8, ++l) {
    lane[l] = absorb(lane[l], load64(p));
  }
  if (bytes >= 4) lane[l] = absorb(lane[l], load32(p));
}

}  // namespace

std::uint64_t EvalCache::key(const Genome& genome) noexcept {
  std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  // Length prefixes, one per lane so they cost one step of latency.
  lane[1] = absorb(lane[1], genome.seq.size());
  lane[2] = absorb(lane[2], genome.assign.size());
  lane[3] = absorb(lane[3], genome.keys.size());
  absorb_bytes(lane, genome.seq.data(), genome.seq.size() * sizeof(int));
  absorb_bytes(lane, genome.assign.data(), genome.assign.size() * sizeof(int));
  absorb_bytes(lane, genome.keys.data(), genome.keys.size() * sizeof(double));
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                    std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// --- shard -------------------------------------------------------------------

struct alignas(64) EvalCache::Shard {
  struct Slot {
    std::uint64_t key = 0;
    Genome genome;
    double objective = 0.0;
    std::int32_t prev = kEmpty;  ///< toward the most recent (kLru only)
    std::int32_t next = kEmpty;  ///< toward the least recent (kLru only)
  };

  mutable std::mutex mutex;
  std::vector<Slot> slots;  ///< dense, append-only; eviction reuses slots
  /// Open addressing over slot numbers (kEmpty = free), load <= 1/2.
  std::vector<std::int32_t> index =
      std::vector<std::int32_t>(std::size_t{1} << kInitialIndexBits, kEmpty);
  int shift = 64 - kInitialIndexBits;  ///< home() keeps the top bits
  std::int32_t head = kEmpty;          ///< most recently used (kLru)
  std::int32_t tail = kEmpty;          ///< least recently used (kLru)
  EvalCacheStats stats;

  std::size_t mask() const { return index.size() - 1; }

  /// Fibonacci remix: the shard was chosen by the key's high bits, so the
  /// index position must not depend on them alone.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
  }

  /// Index position holding `key`, or the free position ending its probe.
  std::size_t probe(std::uint64_t key) const {
    std::size_t pos = home(key);
    for (;;) {
      const std::int32_t s = index[pos];
      if (s == kEmpty || slots[static_cast<std::size_t>(s)].key == key) {
        return pos;
      }
      pos = (pos + 1) & mask();
    }
  }

  /// Backward-shift deletion: pulls every later member of the probe run
  /// whose home does not lie between the hole and itself into the hole,
  /// so probes never need tombstones.
  void erase_at(std::size_t hole) {
    const std::size_t m = mask();
    for (std::size_t pos = (hole + 1) & m; index[pos] != kEmpty;
         pos = (pos + 1) & m) {
      const std::size_t h =
          home(slots[static_cast<std::size_t>(index[pos])].key);
      if (((pos - h) & m) >= ((pos - hole) & m)) {
        index[hole] = index[pos];
        hole = pos;
      }
    }
    index[hole] = kEmpty;
  }

  void grow() {
    index.assign(index.size() * 2, kEmpty);
    --shift;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      std::size_t pos = home(slots[s].key);
      while (index[pos] != kEmpty) pos = (pos + 1) & mask();
      index[pos] = static_cast<std::int32_t>(s);
    }
  }

  void unlink(std::int32_t s) {
    Slot& slot = slots[static_cast<std::size_t>(s)];
    if (slot.prev != kEmpty) {
      slots[static_cast<std::size_t>(slot.prev)].next = slot.next;
    } else {
      head = slot.next;
    }
    if (slot.next != kEmpty) {
      slots[static_cast<std::size_t>(slot.next)].prev = slot.prev;
    } else {
      tail = slot.prev;
    }
  }

  void push_front(std::int32_t s) {
    Slot& slot = slots[static_cast<std::size_t>(s)];
    slot.prev = kEmpty;
    slot.next = head;
    if (head != kEmpty) {
      slots[static_cast<std::size_t>(head)].prev = s;
    } else {
      tail = s;
    }
    head = s;
  }

  void touch(std::int32_t s) {
    if (s == head) return;
    unlink(s);
    push_front(s);
  }

  bool lookup(std::uint64_t key, const Genome& genome, bool lru,
              double& out) {
    const std::int32_t s = index[probe(key)];
    if (s == kEmpty || !(slots[static_cast<std::size_t>(s)].genome == genome)) {
      ++stats.misses;
      return false;
    }
    if (lru) touch(s);
    ++stats.hits;
    out = slots[static_cast<std::size_t>(s)].objective;
    return true;
  }

  void insert(std::uint64_t key, const Genome& genome, double objective,
              bool lru, std::size_t capacity) {
    ++stats.inserts;
    std::size_t pos = probe(key);
    std::int32_t s = index[pos];
    if (s != kEmpty) {
      // Same key already present: refresh an equal genome, replace a
      // colliding one (either way the table keeps one entry per key).
      Slot& slot = slots[static_cast<std::size_t>(s)];
      slot.genome = genome;
      slot.objective = objective;
      if (lru) touch(s);
      return;
    }
    if (lru && slots.size() >= capacity) {
      // Full: the least-recently-used slot is rewritten in place, so its
      // genome buffer is reused instead of freed and reallocated.
      s = tail;
      erase_at(probe(slots[static_cast<std::size_t>(s)].key));
      unlink(s);
      ++stats.evictions;
      pos = probe(key);  // the backward shift may have moved the free spot
    } else {
      if ((slots.size() + 1) * 2 > index.size()) {
        grow();
        pos = probe(key);
      }
      s = static_cast<std::int32_t>(slots.size());
      slots.emplace_back();
    }
    Slot& slot = slots[static_cast<std::size_t>(s)];
    slot.key = key;
    slot.genome = genome;
    slot.objective = objective;
    index[pos] = s;
    if (lru) push_front(s);
  }
};

// --- cache -------------------------------------------------------------------

EvalCache::EvalCache(EvalCacheConfig config)
    : config_(config),
      lru_(config.mode == EvalCacheMode::kLru),
      shard_count_(static_cast<std::uint32_t>(std::max(1, config.shards))),
      shards_(std::make_unique<Shard[]>(shard_count_)) {
  shard_capacity_ = std::max<std::size_t>(1, config_.capacity / shard_count_);
}

EvalCache::~EvalCache() = default;

template <typename Visit>
void EvalCache::for_each_locked(std::span<const std::uint64_t> keys,
                                Visit&& visit) {
  const std::size_t n = keys.size();
  if (n == 0) return;
  if (shard_count_ == 1 || n == 1) {
    // One lock domain: index order is already shard order.
    Shard& shard = shards_[n == 1 ? shard_of(keys[0]) : 0];
    std::lock_guard lock(shard.mutex);
    for (std::size_t i = 0; i < n; ++i) visit(shard, i);
    return;
  }
  // Stable counting sort of the items by shard.
  thread_local std::vector<std::uint32_t> shard_ids;
  thread_local std::vector<std::uint32_t> order;
  thread_local std::vector<std::uint32_t> start;
  shard_ids.resize(n);
  order.resize(n);
  start.assign(shard_count_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    shard_ids[i] = static_cast<std::uint32_t>(shard_of(keys[i]));
    ++start[shard_ids[i] + 1];
  }
  for (std::uint32_t s = 0; s < shard_count_; ++s) start[s + 1] += start[s];
  for (std::size_t i = 0; i < n; ++i) {
    order[start[shard_ids[i]]++] = static_cast<std::uint32_t>(i);
  }
  // start[s] now marks the end of shard s's run.
  std::size_t begin = 0;
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    const std::size_t end = start[s];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    std::lock_guard lock(shard.mutex);
    for (std::size_t k = begin; k < end; ++k) visit(shard, order[k]);
    begin = end;
  }
}

std::optional<double> EvalCache::lookup(std::uint64_t key,
                                        const Genome& genome) {
  double value = 0.0;
  std::uint8_t hit = 0;
  lookup_many({&key, 1}, {&genome, 1}, {&value, 1}, {&hit, 1});
  if (hit == 0) return std::nullopt;
  return value;
}

void EvalCache::insert(std::uint64_t key, const Genome& genome,
                       double objective) {
  insert_many({&key, 1}, {&genome, 1}, {&objective, 1});
}

std::size_t EvalCache::lookup_many(std::span<const std::uint64_t> keys,
                                   std::span<const Genome> genomes,
                                   std::span<double> out,
                                   std::span<std::uint8_t> hit) {
  std::size_t hits = 0;
  for_each_locked(keys, [&](Shard& shard, std::size_t i) {
    hit[i] = shard.lookup(keys[i], genomes[i], lru_, out[i]) ? 1 : 0;
    hits += hit[i];
  });
  return hits;
}

void EvalCache::insert_many(std::span<const std::uint64_t> keys,
                            std::span<const Genome> genomes,
                            std::span<const double> values) {
  for_each_locked(keys, [&](Shard& shard, std::size_t i) {
    shard.insert(keys[i], genomes[i], values[i], lru_, shard_capacity_);
  });
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats total;
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.inserts += shard.stats.inserts;
    total.evictions += shard.stats.evictions;
  }
  return total;
}

std::size_t EvalCache::size() const {
  std::size_t size = 0;
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard lock(shard.mutex);
    size += shard.slots.size();
  }
  return size;
}

}  // namespace psga::ga
