// The evaluation cache must be an invisible optimization: with
// memoization on, every engine's best-fitness trace is bit-identical to
// the uncached run on every backend, only the number of decode calls
// changes. These tests pin that down, plus the genome hash and the cache
// key, exact counter accounting, LRU eviction against a reference model
// of the policy, the batched calls, and concurrent use.
#include "src/ga/eval_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr flow_shop() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

Genome perm_genome(std::vector<int> seq) {
  Genome g;
  g.seq = std::move(seq);
  return g;
}

// --- genome hash -------------------------------------------------------------

TEST(GenomeHash, DeterministicAndEqualForEqualGenomes) {
  Genome a;
  a.seq = {3, 1, 0, 2};
  a.assign = {0, 1};
  a.keys = {0.25, 0.75};
  Genome b = a;
  EXPECT_EQ(genome_hash(a), genome_hash(a));
  EXPECT_EQ(genome_hash(a), genome_hash(b));
}

TEST(GenomeHash, AllPermutationsOfSixHashDistinct) {
  std::vector<int> seq = {0, 1, 2, 3, 4, 5};
  std::set<std::uint64_t> hashes;
  std::size_t count = 0;
  do {
    hashes.insert(genome_hash(perm_genome(seq)));
    ++count;
  } while (std::next_permutation(seq.begin(), seq.end()));
  EXPECT_EQ(count, 720u);
  EXPECT_EQ(hashes.size(), count) << "permutation hash collision";
}

TEST(GenomeHash, RandomPermutationAndKeyGenomesHashDistinct) {
  // Collision sweep over both encodings the survey uses most: distinct
  // genomes must map to distinct 64-bit hashes in samples far larger
  // than any population.
  par::Rng rng(99);
  const ProblemPtr problem = flow_shop();
  std::set<std::uint64_t> perm_hashes;
  std::set<std::vector<int>> perm_seen;
  for (int i = 0; i < 2000; ++i) {
    const Genome g = problem->random_genome(rng);
    perm_seen.insert(g.seq);
    perm_hashes.insert(genome_hash(g));
  }
  EXPECT_EQ(perm_hashes.size(), perm_seen.size());

  std::set<std::uint64_t> key_hashes;
  for (int i = 0; i < 2000; ++i) {
    Genome g;
    g.keys.resize(12);
    for (double& k : g.keys) k = rng.uniform();
    key_hashes.insert(genome_hash(g));
  }
  EXPECT_EQ(key_hashes.size(), 2000u) << "random-key hash collision";
}

TEST(GenomeHash, ChromosomeBoundariesDisambiguate) {
  // The same values split differently across chromosomes are different
  // genomes and must hash apart (length prefixes guarantee it).
  Genome seq_both;
  seq_both.seq = {1, 2};
  Genome split;
  split.seq = {1};
  split.assign = {2};
  Genome assign_both;
  assign_both.assign = {1, 2};
  Genome keys_only;
  keys_only.keys = {1.0, 2.0};
  std::set<std::uint64_t> hashes = {
      genome_hash(seq_both), genome_hash(split), genome_hash(assign_both),
      genome_hash(keys_only), genome_hash(Genome{})};
  EXPECT_EQ(hashes.size(), 5u);
}

TEST(GenomeHash, SingleSwapChangesHash) {
  const Genome a = perm_genome({0, 1, 2, 3, 4, 5, 6, 7});
  Genome b = a;
  std::swap(b.seq[2], b.seq[6]);
  EXPECT_NE(genome_hash(a), genome_hash(b));
}

// --- cache key ---------------------------------------------------------------

TEST(CacheKey, DeterministicAndEqualForEqualGenomes) {
  Genome a;
  a.seq = {3, 1, 0, 2};
  a.assign = {0, 1};
  a.keys = {0.25, 0.75};
  Genome b = a;
  EXPECT_EQ(EvalCache::key(a), EvalCache::key(a));
  EXPECT_EQ(EvalCache::key(a), EvalCache::key(b));
}

TEST(CacheKey, AllPermutationsOfSixKeyDistinct) {
  std::vector<int> seq = {0, 1, 2, 3, 4, 5};
  std::set<std::uint64_t> keys;
  std::size_t count = 0;
  do {
    keys.insert(EvalCache::key(perm_genome(seq)));
    ++count;
  } while (std::next_permutation(seq.begin(), seq.end()));
  EXPECT_EQ(count, 720u);
  EXPECT_EQ(keys.size(), count) << "permutation key collision";
}

TEST(CacheKey, RandomPermutationAndKeyGenomesKeyDistinct) {
  par::Rng rng(99);
  const ProblemPtr problem = flow_shop();
  std::set<std::uint64_t> perm_keys;
  std::set<std::vector<int>> perm_seen;
  for (int i = 0; i < 2000; ++i) {
    const Genome g = problem->random_genome(rng);
    perm_seen.insert(g.seq);
    perm_keys.insert(EvalCache::key(g));
  }
  EXPECT_EQ(perm_keys.size(), perm_seen.size());

  std::set<std::uint64_t> key_keys;
  for (int i = 0; i < 2000; ++i) {
    Genome g;
    g.keys.resize(12);
    for (double& k : g.keys) k = rng.uniform();
    key_keys.insert(EvalCache::key(g));
  }
  EXPECT_EQ(key_keys.size(), 2000u) << "random-key collision";
}

TEST(CacheKey, ChromosomeBoundariesDisambiguate) {
  // The same values split differently across chromosomes, and an odd
  // tail against its zero-padded twin, are different genomes and must
  // key apart (length prefixes guarantee it).
  Genome seq_both;
  seq_both.seq = {1, 2};
  Genome split;
  split.seq = {1};
  split.assign = {2};
  Genome assign_both;
  assign_both.assign = {1, 2};
  Genome keys_only;
  keys_only.keys = {1.0, 2.0};
  Genome odd_tail;
  odd_tail.seq = {1};
  Genome padded_tail;
  padded_tail.seq = {1, 0};
  std::set<std::uint64_t> keys = {
      EvalCache::key(seq_both),   EvalCache::key(split),
      EvalCache::key(assign_both), EvalCache::key(keys_only),
      EvalCache::key(Genome{}),   EvalCache::key(odd_tail),
      EvalCache::key(padded_tail)};
  EXPECT_EQ(keys.size(), 7u);
}

TEST(CacheKey, SingleSwapChangesKey) {
  // Positions 2 and 6 land in different lanes, 0 and 8 in the same one,
  // and 96/99 in the tail of a 100-operation genome.
  std::vector<int> seq(100);
  for (int i = 0; i < 100; ++i) seq[static_cast<std::size_t>(i)] = i;
  const Genome a = perm_genome(seq);
  for (const auto& [i, j] : {std::pair{2, 6}, std::pair{0, 8},
                             std::pair{96, 99}, std::pair{0, 1}}) {
    Genome b = a;
    std::swap(b.seq[static_cast<std::size_t>(i)],
              b.seq[static_cast<std::size_t>(j)]);
    EXPECT_NE(EvalCache::key(a), EvalCache::key(b)) << i << "<->" << j;
  }
}

// --- cache unit behavior -----------------------------------------------------

EvalCacheConfig one_shard(EvalCacheMode mode, std::size_t capacity) {
  EvalCacheConfig cfg;
  cfg.mode = mode;
  cfg.capacity = capacity;
  cfg.shards = 1;  // deterministic eviction order for the unit tests
  return cfg;
}

TEST(EvalCacheUnit, MissInsertHitAndCounters) {
  EvalCache cache(one_shard(EvalCacheMode::kUnbounded, 16));
  const Genome g = perm_genome({2, 0, 1});
  const std::uint64_t h = genome_hash(g);
  EXPECT_FALSE(cache.lookup(h, g).has_value());
  cache.insert(h, g, 42.5);
  const auto hit = cache.lookup(h, g);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42.5);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCacheUnit, HashCollisionIsAMissAndInsertReplaces) {
  // Force a collision through the explicit-hash API: same key, different
  // genomes. The cache must never serve the wrong objective.
  EvalCache cache(one_shard(EvalCacheMode::kUnbounded, 16));
  const Genome a = perm_genome({0, 1, 2});
  const Genome b = perm_genome({2, 1, 0});
  const std::uint64_t shared_hash = 0xdeadbeefcafef00dULL;
  cache.insert(shared_hash, a, 10.0);
  EXPECT_FALSE(cache.lookup(shared_hash, b).has_value());
  cache.insert(shared_hash, b, 20.0);  // replaces the colliding entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(shared_hash, a).has_value());
  const auto hit = cache.lookup(shared_hash, b);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 20.0);
}

TEST(EvalCacheUnit, LruEvictsLeastRecentlyUsed) {
  EvalCache cache(one_shard(EvalCacheMode::kLru, 3));
  const Genome a = perm_genome({0, 1, 2});
  const Genome b = perm_genome({1, 2, 0});
  const Genome c = perm_genome({2, 0, 1});
  const Genome d = perm_genome({0, 2, 1});
  cache.insert(genome_hash(a), a, 1.0);
  cache.insert(genome_hash(b), b, 2.0);
  cache.insert(genome_hash(c), c, 3.0);
  EXPECT_EQ(cache.size(), 3u);
  // Touch a: recency becomes a, c, b — so the next insert evicts b.
  EXPECT_TRUE(cache.lookup(genome_hash(a), a).has_value());
  cache.insert(genome_hash(d), d, 4.0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.lookup(genome_hash(b), b).has_value()) << "b survived";
  EXPECT_TRUE(cache.lookup(genome_hash(a), a).has_value());
  EXPECT_TRUE(cache.lookup(genome_hash(c), c).has_value());
  EXPECT_TRUE(cache.lookup(genome_hash(d), d).has_value());
}

TEST(EvalCacheUnit, UnboundedNeverEvicts) {
  EvalCache cache(one_shard(EvalCacheMode::kUnbounded, 2));
  par::Rng rng(5);
  const ProblemPtr problem = flow_shop();
  for (int i = 0; i < 50; ++i) {
    const Genome g = problem->random_genome(rng);
    cache.insert(genome_hash(g), g, static_cast<double>(i));
  }
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_GT(cache.size(), 2u);
}

// --- reference model ---------------------------------------------------------

// The cache policy as a node-based map + recency list: the layout the
// flat cache replaced. The flat cache must match it for every key —
// results, counters and size after every operation.
class ReferenceCache {
 public:
  explicit ReferenceCache(const EvalCacheConfig& config)
      : lru_(config.mode == EvalCacheMode::kLru),
        shards_(static_cast<std::size_t>(std::max(1, config.shards))) {
    capacity_ = std::max<std::size_t>(1, config.capacity / shards_.size());
  }

  std::optional<double> lookup(std::uint64_t key, const Genome& genome) {
    Shard& shard = shard_for(key);
    const auto it = shard.map.find(key);
    if (it == shard.map.end() || !(it->second.genome == genome)) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    if (lru_) shard.order.splice(shard.order.begin(), shard.order, it->second.lru);
    ++shard.stats.hits;
    return it->second.objective;
  }

  void insert(std::uint64_t key, const Genome& genome, double objective) {
    Shard& shard = shard_for(key);
    ++shard.stats.inserts;
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.genome = genome;
      it->second.objective = objective;
      if (lru_) {
        shard.order.splice(shard.order.begin(), shard.order, it->second.lru);
      }
      return;
    }
    Entry entry{genome, objective, {}};
    if (lru_) {
      shard.order.push_front(key);
      entry.lru = shard.order.begin();
    }
    shard.map.emplace(key, std::move(entry));
    if (lru_ && shard.map.size() > capacity_) {
      shard.map.erase(shard.order.back());
      shard.order.pop_back();
      ++shard.stats.evictions;
    }
  }

  EvalCacheStats stats() const {
    EvalCacheStats total;
    for (const Shard& shard : shards_) {
      total.hits += shard.stats.hits;
      total.misses += shard.stats.misses;
      total.inserts += shard.stats.inserts;
      total.evictions += shard.stats.evictions;
    }
    return total;
  }

  std::size_t size() const {
    std::size_t size = 0;
    for (const Shard& shard : shards_) size += shard.map.size();
    return size;
  }

 private:
  struct Entry {
    Genome genome;
    double objective = 0.0;
    std::list<std::uint64_t>::iterator lru;
  };
  struct Shard {
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> order;  ///< front = most recently used
    EvalCacheStats stats;
  };
  Shard& shard_for(std::uint64_t key) {
    return shards_[static_cast<std::size_t>(key >> 32) % shards_.size()];
  }

  bool lru_;
  std::size_t capacity_;
  std::vector<Shard> shards_;
};

void expect_same_stats(const EvalCacheStats& a, const EvalCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
}

/// Genomes of three lengths (so rewritten slots change length) and the
/// key each one is filed under: its EvalCache::key, or — for a quarter
/// of the draws — one of a few shared keys, forcing collisions.
struct DifferentialPool {
  std::vector<Genome> genomes;
  std::vector<std::uint64_t> collision_keys;

  explicit DifferentialPool(par::Rng& rng) {
    for (const int length : {3, 9, 20}) {
      for (int i = 0; i < 14; ++i) {
        Genome g;
        g.seq.resize(static_cast<std::size_t>(length));
        for (int& v : g.seq) v = rng.range(0, 5);
        genomes.push_back(std::move(g));
      }
    }
    for (int i = 0; i < 4; ++i) collision_keys.push_back(rng());
  }

  std::pair<std::uint64_t, const Genome*> draw(par::Rng& rng) const {
    const Genome& g = genomes[rng.below(genomes.size())];
    const std::uint64_t key = rng.chance(0.25)
                                  ? collision_keys[rng.below(collision_keys.size())]
                                  : EvalCache::key(g);
    return {key, &g};
  }
};

TEST(EvalCacheDifferential, MatchesReferenceModelAfterEveryOperation) {
  for (const EvalCacheMode mode : {EvalCacheMode::kLru, EvalCacheMode::kUnbounded}) {
    for (const std::size_t capacity : {1u, 3u, 17u}) {
      for (const int shards : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "mode " << static_cast<int>(mode) << " capacity "
                     << capacity << " shards " << shards);
        EvalCacheConfig cfg;
        cfg.mode = mode;
        cfg.capacity = capacity;
        cfg.shards = shards;
        EvalCache cache(cfg);
        ReferenceCache reference(cfg);
        par::Rng rng(1000 + capacity * 10 + static_cast<std::size_t>(shards));
        const DifferentialPool pool(rng);
        for (int op = 0; op < 3000; ++op) {
          const auto [key, genome] = pool.draw(rng);
          if (rng.chance(0.5)) {
            const auto got = cache.lookup(key, *genome);
            const auto want = reference.lookup(key, *genome);
            ASSERT_EQ(got, want) << "op " << op;
          } else {
            const double value = static_cast<double>(op);
            cache.insert(key, *genome, value);
            reference.insert(key, *genome, value);
          }
          ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
          expect_same_stats(cache.stats(), reference.stats());
          if (HasFailure()) return;
        }
        if (mode == EvalCacheMode::kLru) {
          EXPECT_GT(cache.stats().evictions, 0);
        }
      }
    }
  }
}

TEST(EvalCacheDifferential, BatchedCallsEqualTheOneAtATimeLoop) {
  for (const std::size_t capacity : {1u, 3u, 17u}) {
    for (const int shards : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << " shards " << shards);
      EvalCacheConfig cfg;
      cfg.mode = EvalCacheMode::kLru;
      cfg.capacity = capacity;
      cfg.shards = shards;
      EvalCache batched(cfg);
      EvalCache looped(cfg);
      par::Rng rng(2000 + capacity * 10 + static_cast<std::size_t>(shards));
      const DifferentialPool pool(rng);
      for (int round = 0; round < 300; ++round) {
        // A batch with in-batch duplicates and forced collisions.
        const std::size_t n = 1 + rng.below(24);
        std::vector<std::uint64_t> keys(n);
        std::vector<Genome> genomes(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto [key, genome] = pool.draw(rng);
          keys[i] = key;
          genomes[i] = *genome;
        }
        std::vector<double> out(n, -1.0);
        std::vector<std::uint8_t> hit(n, 2);
        const std::size_t hits = batched.lookup_many(keys, genomes, out, hit);
        std::size_t looped_hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto want = looped.lookup(keys[i], genomes[i]);
          ASSERT_EQ(hit[i] != 0, want.has_value()) << "round " << round;
          if (want.has_value()) {
            ++looped_hits;
            ASSERT_EQ(out[i], *want);
          } else {
            ASSERT_EQ(out[i], -1.0) << "a miss must leave out[i] alone";
          }
        }
        ASSERT_EQ(hits, looped_hits);
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
          values[i] = static_cast<double>(round * 100 + static_cast<int>(i));
        }
        batched.insert_many(keys, genomes, values);
        for (std::size_t i = 0; i < n; ++i) {
          looped.insert(keys[i], genomes[i], values[i]);
        }
        ASSERT_EQ(batched.size(), looped.size());
        expect_same_stats(batched.stats(), looped.stats());
        if (HasFailure()) return;
      }
      // Equal LRU state: the same single-item probes and inserts keep
      // answering alike, so the eviction order that follows is equal.
      for (int op = 0; op < 500; ++op) {
        const auto [key, genome] = pool.draw(rng);
        ASSERT_EQ(batched.lookup(key, *genome), looped.lookup(key, *genome))
            << "probe " << op;
        if (rng.chance(0.3)) {
          batched.insert(key, *genome, op);
          looped.insert(key, *genome, op);
        }
      }
      expect_same_stats(batched.stats(), looped.stats());
    }
  }
}

TEST(EvalCacheDifferential, IndexSurvivesGrowthAndDeletionChurn) {
  // Thousands of random keys through one shard: the index doubles many
  // times, and a tight LRU bound deletes through long probe runs. Every
  // stored entry must stay findable and every evicted one gone.
  for (const EvalCacheMode mode : {EvalCacheMode::kUnbounded, EvalCacheMode::kLru}) {
    EvalCacheConfig cfg;
    cfg.mode = mode;
    cfg.capacity = 257;
    cfg.shards = 1;
    EvalCache cache(cfg);
    ReferenceCache reference(cfg);
    par::Rng rng(77);
    const Genome g = perm_genome({0, 1, 2});
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 5000; ++i) {
      keys.push_back(rng());
      cache.insert(keys.back(), g, i);
      reference.insert(keys.back(), g, i);
    }
    ASSERT_EQ(cache.size(), reference.size());
    for (std::size_t i = keys.size(); i-- > 0;) {
      ASSERT_EQ(cache.lookup(keys[i], g), reference.lookup(keys[i], g)) << i;
    }
    expect_same_stats(cache.stats(), reference.stats());
  }
}

// --- concurrency -------------------------------------------------------------

TEST(EvalCacheConcurrency, BatchedCallsFromFourThreadsStayExact) {
  // Four threads share one small LRU cache (constant eviction) through
  // the batched calls. A hit must always carry that genome's own
  // objective, and the counters must add up exactly.
  const ProblemPtr problem = flow_shop();
  par::Rng seeder(5);
  std::vector<Genome> pool;
  std::vector<double> truth;
  auto workspace = problem->make_workspace();
  for (int i = 0; i < 160; ++i) {
    pool.push_back(problem->random_genome(seeder));
    truth.push_back(problem->objective(pool.back(), *workspace));
  }
  EvalCacheConfig cfg;
  cfg.mode = EvalCacheMode::kLru;
  cfg.capacity = 48;
  cfg.shards = 4;
  EvalCache cache(cfg);
  constexpr int kThreads = 4;
  std::atomic<long long> lookups{0};
  std::atomic<long long> hits{0};
  std::atomic<long long> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      par::Rng rng(100 + static_cast<std::uint64_t>(t));
      std::vector<std::size_t> picks;
      std::vector<std::uint64_t> keys;
      std::vector<Genome> genomes;
      std::vector<double> out;
      std::vector<std::uint8_t> hit;
      for (int round = 0; round < 1500; ++round) {
        const std::size_t n = 1 + rng.below(32);
        picks.resize(n);
        keys.resize(n);
        genomes.resize(n);
        out.assign(n, -1.0);
        hit.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          picks[i] = rng.below(pool.size());
          genomes[i] = pool[picks[i]];
          keys[i] = EvalCache::key(genomes[i]);
        }
        hits += static_cast<long long>(cache.lookup_many(keys, genomes, out, hit));
        lookups += static_cast<long long>(n);
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (hit[i] != 0 && out[i] != truth[picks[i]]) ++wrong;
          values[i] = truth[picks[i]];
        }
        cache.insert_many(keys, genomes, values);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(wrong.load(), 0) << "a hit returned another genome's objective";
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.inserts, lookups.load());
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(cache.size(), cfg.capacity);
}

// --- evaluator integration: exact accounting ---------------------------------

TEST(EvaluatorCache, BatchCountersMatchHandComputedDuplicates) {
  const ProblemPtr problem = flow_shop();
  par::Rng rng(7);
  std::vector<Genome> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(problem->random_genome(rng));
  batch.push_back(batch[0]);  // two in-batch duplicates
  batch.push_back(batch[1]);

  Evaluator evaluator(problem, EvalBackend::kSerial);
  auto cache = std::make_shared<EvalCache>(
      one_shard(EvalCacheMode::kUnbounded, 1024));
  evaluator.set_cache(cache);
  std::vector<double> out(batch.size());
  // First pass: nothing is memoized yet; in-batch duplicates decode
  // independently (inserts land after the batch), so all 8 miss.
  evaluator.evaluate(batch, out);
  EXPECT_EQ(cache->stats().misses, 8);
  EXPECT_EQ(cache->stats().hits, 0);
  EXPECT_EQ(evaluator.decode_calls(), 8);
  EXPECT_EQ(cache->size(), 6u);
  // Second pass over the same batch: all 8 hit, zero decodes.
  std::vector<double> again(batch.size());
  evaluator.evaluate(batch, again);
  EXPECT_EQ(again, out);
  EXPECT_EQ(cache->stats().hits, 8);
  EXPECT_EQ(evaluator.decode_calls(), 8);
  EXPECT_EQ(evaluator.evaluations(), 16);
}

TEST(EvaluatorCache, HeavyElitismCloneOnlyRunDecodesEachGenomeOnce) {
  // crossover_rate = mutation_rate = 0 makes every child a verbatim copy
  // of a parent, and distinct seed genomes make the initial population
  // the complete genome universe: after the first generation decode,
  // every evaluation is a cache hit — the hand-computable extreme of the
  // heavy-elitism duplication the cache exists for.
  const ProblemPtr problem = flow_shop();
  const int pop = 12;
  const int generations = 5;
  GaConfig cfg;
  cfg.population = pop;
  cfg.elites = 4;
  cfg.ops.crossover_rate = 0.0;
  cfg.ops.mutation_rate = 0.0;
  cfg.seed = 41;
  cfg.eval_cache.mode = EvalCacheMode::kUnbounded;
  par::Rng seeder(17);
  std::set<std::uint64_t> distinct;
  while (static_cast<int>(cfg.seed_genomes.size()) < pop) {
    Genome g = problem->random_genome(seeder);
    if (distinct.insert(genome_hash(g)).second) {
      cfg.seed_genomes.push_back(std::move(g));
    }
  }
  SimpleGa engine(problem, cfg);
  const RunResult r = engine.run(StopCondition::generations(generations));
  ASSERT_TRUE(r.cache.has_value());
  EXPECT_EQ(r.cache->misses, pop);
  EXPECT_EQ(r.cache->inserts, pop);
  EXPECT_EQ(r.cache->hits, pop * generations);
  EXPECT_EQ(engine.decode_calls(), pop);
  EXPECT_EQ(r.evaluations, pop * (generations + 1));
}

TEST(EvaluatorCache, SharedAndReusedCachesReportPerRunDeltas) {
  // RunResult::cache must be this run's delta, not cache-lifetime
  // totals: rerun the same engine, and hand one pre-built cache to two
  // engines in sequence — every result keeps hits+misses==evaluations.
  const ProblemPtr problem = flow_shop();
  const StopCondition stop = StopCondition::generations(5);
  Solver solver = Solver::build(
      SolverSpec::parse("engine=simple pop=12 elites=4 seed=51 "
                        "eval_cache=unbounded"),
      problem);
  const RunResult first = solver.run(stop);
  const RunResult second = solver.run(stop);  // warm cache, same engine
  ASSERT_TRUE(second.cache.has_value());
  // The per-run delta invariant: lifetime totals span both runs, so
  // without the baseline snapshot the second result would double-count.
  EXPECT_EQ(first.cache->hits + first.cache->misses, first.evaluations);
  EXPECT_EQ(second.cache->hits + second.cache->misses, second.evaluations);

  // Engines that rebuild their inner engine — and with it the cache —
  // inside init() (memetic, quantum) must not subtract a
  // stale baseline when a fresh cache lands at a recycled address.
  Solver memetic = Solver::build(
      SolverSpec::parse("engine=memetic pop=12 interval=2 refine=2 budget=30 "
                        "seed=55 eval_cache=unbounded"),
      problem);
  (void)memetic.run(stop);
  const RunResult rerun = memetic.run(stop);
  ASSERT_TRUE(rerun.cache.has_value());
  EXPECT_EQ(rerun.cache->hits + rerun.cache->misses, rerun.evaluations);
  EXPECT_GT(rerun.cache->misses, 0);

  auto shared = std::make_shared<EvalCache>(
      one_shard(EvalCacheMode::kUnbounded, 1024));
  for (const std::uint64_t seed : {61ull, 61ull}) {
    GaConfig cfg;
    cfg.population = 12;
    cfg.seed = seed;
    cfg.shared_eval_cache = shared;
    IslandGaConfig island_cfg;
    island_cfg.islands = 2;
    island_cfg.base = cfg;
    IslandGa engine(problem, island_cfg);
    const RunResult r = engine.run(stop);
    ASSERT_TRUE(r.cache.has_value());
    EXPECT_EQ(r.cache->hits + r.cache->misses, r.evaluations);
  }
}

TEST(EvaluatorCache, HitsPlusMissesEqualsEvaluations) {
  Solver solver = Solver::build(
      SolverSpec::parse("engine=simple pop=16 elites=6 seed=3 "
                        "eval_cache=lru:4096"),
      flow_shop());
  const RunResult r = solver.run(StopCondition::generations(8));
  ASSERT_TRUE(r.cache.has_value());
  EXPECT_EQ(r.cache->hits + r.cache->misses, r.evaluations);
  EXPECT_GE(r.cache->hits, 6 * 8) << "elites alone guarantee this many hits";
  EXPECT_NE(solver.engine().eval_cache(), nullptr);
}

// --- cache-on vs cache-off trace equivalence, all engines x backends ---------

const char* kEngineSpecs[] = {
    "engine=simple pop=20 elites=4 seed=11",
    "engine=master-slave pop=20 elites=4 seed=11",
    "engine=cellular width=5 height=4 seed=11",
    "engine=island islands=3 pop=10 interval=2 seed=11",
    "engine=islands-of-cellular islands=2 width=4 height=3 interval=2 seed=11",
    "engine=quantum islands=2 pop=8 seed=11",
    "engine=memetic pop=14 interval=2 refine=2 budget=40 seed=11",
    "engine=cluster ranks=2 pop=10 interval=2 seed=11",
};

class CacheEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(CacheEquivalence, BitIdenticalTracesAcrossBackendsAndCacheModes) {
  const std::string base = GetParam();
  const StopCondition stop = StopCondition::generations(6);
  const ProblemPtr problem = flow_shop();
  for (const char* eval : {" eval=serial", " eval=pool", " eval=omp"}) {
    SCOPED_TRACE(base + eval);
    const RunResult off =
        Solver::build(SolverSpec::parse(base + eval), problem).run(stop);
    for (const char* cache : {" eval_cache=lru:4096", " eval_cache=unbounded"}) {
      SCOPED_TRACE(cache);
      const RunResult on =
          Solver::build(SolverSpec::parse(base + eval + cache), problem)
              .run(stop);
      EXPECT_EQ(off.history, on.history);
      EXPECT_EQ(off.best.seq, on.best.seq);
      EXPECT_EQ(off.best_objective, on.best_objective);
      EXPECT_EQ(off.evaluations, on.evaluations)
          << "cache hits must count like decodes";
      ASSERT_TRUE(on.cache.has_value());
      EXPECT_EQ(on.cache->hits + on.cache->misses, on.evaluations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CacheEquivalence,
                         ::testing::ValuesIn(kEngineSpecs));

TEST(CacheEquivalence, TinyLruCapacityStillBitIdentical) {
  // A pathologically small LRU (constant thrash) may not save decodes,
  // but it must never change a trace.
  const StopCondition stop = StopCondition::generations(6);
  const ProblemPtr problem = flow_shop();
  const RunResult off = Solver::build(
      SolverSpec::parse("engine=island islands=3 pop=10 interval=2 seed=13"),
      problem).run(stop);
  const RunResult on = Solver::build(
      SolverSpec::parse("engine=island islands=3 pop=10 interval=2 seed=13 "
                        "eval_cache=lru:8"),
      problem).run(stop);
  EXPECT_EQ(off.history, on.history);
  EXPECT_EQ(off.best.seq, on.best.seq);
  ASSERT_TRUE(on.cache.has_value());
  EXPECT_GT(on.cache->evictions, 0) << "capacity 8 should thrash";
}

// --- evaluation budgets: cache hits count exactly once -----------------------

TEST(EvaluatorCache, EvaluationBudgetCountsCacheHitsExactlyOnce) {
  // Regression: a cache hit must count toward the evaluation budget
  // exactly like a decode, so the budget cuts the cached run at the same
  // generation with an identical trace.
  const ProblemPtr problem = flow_shop();
  const StopCondition budget = StopCondition::evaluation_budget(95);
  const std::string base = "engine=simple pop=10 elites=4 seed=29";
  const RunResult reference =
      Solver::build(SolverSpec::parse(base + " eval=serial"), problem)
          .run(budget);
  EXPECT_GE(reference.evaluations, 95);
  const RunResult got =
      Solver::build(
          SolverSpec::parse(base + " eval=serial eval_cache=unbounded"),
          problem)
          .run(budget);
  EXPECT_EQ(reference.generations, got.generations);
  EXPECT_EQ(reference.evaluations, got.evaluations);
  EXPECT_EQ(reference.history, got.history);
  EXPECT_EQ(reference.best.seq, got.best.seq);
}

// --- metric identity: every evaluation is a decode or a cache hit -----------

TEST(EvalMetricIdentity, DecodesPlusHitsEqualEvaluationsForEveryEngine) {
  // Every logical evaluation is answered either by a metered decode or by
  // a cache hit — local-search climbs (evaluate_one) included. Sizes keep
  // each run small; an engine without an entry runs on its defaults.
  const std::map<std::string, std::string> sizes = {
      {"simple", " pop=20 elites=4"},
      {"master-slave", " pop=20 elites=4"},
      {"cellular", " width=5 height=4"},
      {"island", " islands=3 pop=10 interval=2"},
      {"islands-of-cellular", " islands=2 width=4 height=3 interval=2"},
      {"quantum", " islands=2 pop=8"},
      {"memetic", " pop=14 interval=2 refine=2 budget=40"},
      {"cluster", " ranks=2 pop=10 interval=2"},
  };
  const StopCondition stop = StopCondition::generations(6);
  const ProblemPtr problem = flow_shop();
  for (const std::string& name : engine_names()) {
    const auto size = sizes.find(name);
    const std::string base = "engine=" + name + " seed=11" +
                             (size != sizes.end() ? size->second : "");
    for (const char* eval : {" eval=serial", " eval=pool"}) {
      for (const char* cache : {" eval_cache=off", " eval_cache=lru:4096"}) {
        const std::string text = base + eval + cache;
        SCOPED_TRACE(text);
        const RunResult r =
            Solver::build(SolverSpec::parse(text), problem).run(stop);
        ASSERT_TRUE(r.metrics.has_value());
        const std::uint64_t* decoded =
            r.metrics->counter("eval.decoded_genomes");
        const std::uint64_t* hits = r.metrics->counter("eval.cache.hits");
        const std::uint64_t* misses = r.metrics->counter("eval.cache.misses");
        ASSERT_NE(decoded, nullptr);
        ASSERT_NE(hits, nullptr);
        ASSERT_NE(misses, nullptr);
        const auto evaluations = static_cast<std::uint64_t>(r.evaluations);
        EXPECT_GT(evaluations, 0u);
        EXPECT_EQ(*decoded + *hits, evaluations);
        if (std::string(cache) != " eval_cache=off") {
          EXPECT_EQ(*hits + *misses, evaluations);
        } else {
          EXPECT_EQ(*hits + *misses, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace psga::ga
