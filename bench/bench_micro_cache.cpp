// Micro-benchmarks: the evaluation cache. The headline numbers land in
// BENCH_micro.json via ci.sh:
//   - hit_rate / decode_reduction counters on a heavy-elitism island run
//     (the acceptance bar: >= 30% fewer decode calls with the cache on);
//   - cached vs uncached engine throughput on a decode-heavy job shop;
//   - the cache layer itself (BM_Cache*, under ci.sh's regression gate):
//     all-hit and all-miss batches, an insert that evicts from a full
//     table, and the cache key against genome_hash.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/ga/problem_registry.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"

namespace {

using namespace psga::ga;

ProblemPtr job_shop() {
  // ft10 through the Giffler-Thompson decoder: a decode heavy enough
  // that memoization pays, light enough for a bench loop.
  return make_problem(
      psga::sched::ft10().instance, JobShopProblem::Decoder::kGifflerThompson);
}

// Heavy elitism + migration cloning: the duplication profile the cache
// exists for. One island run per iteration; the counters report the
// measured duplicate traffic of the final run.
void BM_IslandHeavyElitism(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const std::string spec =
      std::string("engine=island islands=4 pop=16 elites=6 interval=2 "
                  "seed=7") +
      (cached ? " eval_cache=lru:65536" : "");
  const ProblemPtr problem = job_shop();
  RunResult last;
  for (auto _ : state) {
    Solver solver = Solver::build(SolverSpec::parse(spec), problem);
    last = solver.run(StopCondition::generations(20));
    benchmark::DoNotOptimize(last.best_objective);
  }
  state.counters["evaluations"] = static_cast<double>(last.evaluations);
  if (last.cache.has_value()) {
    const double hits = static_cast<double>(last.cache->hits);
    const double misses = static_cast<double>(last.cache->misses);
    state.counters["hit_rate"] = hits / (hits + misses);
    // Decodes drop from `evaluations` (uncached) to `misses`.
    state.counters["decode_reduction"] =
        1.0 - misses / static_cast<double>(last.evaluations);
  } else {
    state.counters["hit_rate"] = 0.0;
    state.counters["decode_reduction"] = 0.0;
  }
}
BENCHMARK(BM_IslandHeavyElitism)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cache"})
    ->Unit(benchmark::kMillisecond);

// Same duplication profile on the single-population engine: wall-clock
// effect of memoization alone.
void BM_SimpleElitistRun(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const std::string spec =
      std::string("engine=simple pop=48 elites=16 seed=11") +
      (cached ? " eval_cache=lru:65536" : "");
  const ProblemPtr problem = job_shop();
  for (auto _ : state) {
    Solver solver = Solver::build(SolverSpec::parse(spec), problem);
    const RunResult r = solver.run(StopCondition::generations(15));
    benchmark::DoNotOptimize(r.best_objective);
  }
}
BENCHMARK(BM_SimpleElitistRun)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"cache"})
    ->Unit(benchmark::kMillisecond);

// Raw cache-layer overhead: lookup+hit on a full batch (the per-genome
// cost a hit must beat is one decode).
void BM_CacheHitBatch(benchmark::State& state) {
  const ProblemPtr problem = job_shop();
  psga::par::Rng rng(3);
  std::vector<Genome> population;
  const std::size_t pop = 256;
  for (std::size_t i = 0; i < pop; ++i) {
    population.push_back(problem->random_genome(rng));
  }
  std::vector<double> objectives(pop, 0.0);
  Evaluator evaluator(problem, EvalBackend::kSerial);
  EvalCacheConfig cache_cfg;
  cache_cfg.mode = EvalCacheMode::kUnbounded;
  evaluator.set_cache(std::make_shared<EvalCache>(cache_cfg));
  evaluator.evaluate(population, objectives);  // warm: everything misses once
  for (auto _ : state) {
    evaluator.evaluate(population, objectives);  // all hits
    benchmark::DoNotOptimize(objectives);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(pop));
}
BENCHMARK(BM_CacheHitBatch);

std::vector<Genome> ft10_genomes(std::size_t count) {
  const ProblemPtr problem = job_shop();
  psga::par::Rng rng(5);
  std::vector<Genome> genomes;
  for (std::size_t i = 0; i < count; ++i) {
    genomes.push_back(problem->random_genome(rng));
  }
  return genomes;
}

/// Distinct synthetic keys, so every insert is a new entry.
std::uint64_t nth_key(std::uint64_t n) {
  return psga::par::splitmix64(n);  // advances the copy, returns a mix
}

EvalCacheConfig lru_65536() {
  EvalCacheConfig cfg;
  cfg.mode = EvalCacheMode::kLru;
  cfg.capacity = 65536;
  return cfg;
}

// One insert into a full lru:65536 table of ft10-length genomes (100
// operations): every insert evicts the shard's least-recently-used entry.
void BM_CacheInsertEvict(benchmark::State& state) {
  const std::vector<Genome> genomes = ft10_genomes(1024);
  EvalCache cache(lru_65536());
  std::uint64_t n = 0;
  for (; cache.stats().evictions == 0; ++n) {
    cache.insert(nth_key(n), genomes[n % genomes.size()], 1.0);
  }
  for (auto _ : state) {
    cache.insert(nth_key(n), genomes[n % genomes.size()], 1.0);
    ++n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertEvict);

// The mostly-miss generation of an island run, cache side only: key 50
// ft10 genomes, one batched lookup that misses them all, one batched
// insert that evicts as many entries from a full lru:65536 table. The
// per-round salt makes every round's keys fresh.
void BM_CacheMissBatch(benchmark::State& state) {
  const std::size_t batch = 50;
  const std::vector<Genome> genomes = ft10_genomes(batch);
  EvalCache cache(lru_65536());
  for (std::uint64_t n = 0; cache.stats().evictions == 0; ++n) {
    cache.insert(nth_key(n), genomes[n % batch], 1.0);
  }
  std::vector<std::uint64_t> keys(batch);
  std::vector<double> out(batch, 0.0);
  std::vector<std::uint8_t> hit(batch, 0);
  const std::vector<double> values(batch, 2.0);
  std::uint64_t round = 0;
  for (auto _ : state) {
    const std::uint64_t salt = nth_key(~round++);
    for (std::size_t i = 0; i < batch; ++i) {
      keys[i] = EvalCache::key(genomes[i]) ^ salt;
    }
    benchmark::DoNotOptimize(cache.lookup_many(keys, genomes, out, hit));
    cache.insert_many(keys, genomes, values);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(batch));
}
BENCHMARK(BM_CacheMissBatch);

// Key cost per ft10 genome: the cache key against genome_hash, the
// stable identity it replaced on the cache path.
void BM_CacheKey(benchmark::State& state) {
  const bool stable = state.range(0) != 0;
  const std::vector<Genome> genomes = ft10_genomes(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const Genome& g = genomes[i++ & 63];
    benchmark::DoNotOptimize(stable ? genome_hash(g) : EvalCache::key(g));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheKey)->Arg(0)->Arg(1)->ArgNames({"genome_hash"});

}  // namespace

BENCHMARK_MAIN();
