// Parallel evaluation must be invisible in every observable: objectives
// are pure and the evaluation count is logical, so the thread-pool and
// OpenMP backends reproduce the serial trace bit for bit. These tests pin
// backend-vs-serial trace equivalence for all eight engines (with and
// without the evaluation cache), the per-generation state at the stepwise
// API, and determinism under 1-16 worker threads and repeated seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
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

// --- per-generation state at the stepwise API --------------------------------

TEST(BackendEquivalence, StepwiseStateIdenticalAtEveryGeneration) {
  const ProblemPtr problem = flow_shop();
  GaConfig serial_cfg;
  serial_cfg.population = 18;
  serial_cfg.elites = 3;
  serial_cfg.seed = 77;
  GaConfig pool_cfg = serial_cfg;
  pool_cfg.eval_backend = EvalBackend::kThreadPool;

  par::ThreadPool pool(3);
  SimpleGa serial(problem, serial_cfg);
  SimpleGa parallel(problem, pool_cfg, &pool);
  serial.init();
  parallel.init();
  ASSERT_EQ(serial.objectives(), parallel.objectives());
  for (int gen = 0; gen < 10; ++gen) {
    SCOPED_TRACE(gen);
    serial.step();
    parallel.step();
    // After each step the whole population, its objectives and the
    // running best must match bit for bit.
    EXPECT_EQ(serial.best_objective(), parallel.best_objective());
    EXPECT_EQ(serial.best().seq, parallel.best().seq);
    EXPECT_EQ(serial.objectives(), parallel.objectives());
    EXPECT_EQ(serial.population(), parallel.population());
    EXPECT_EQ(serial.evaluations(), parallel.evaluations());
  }
}

// --- parallel vs serial equivalence for all eight engines --------------------

// engine=master-slave promotes eval=serial to the thread pool, so its
// reference run is the simple GA with the same settings.
struct EngineCase {
  const char* spec;
  const char* serial_spec;
};

const EngineCase kEngineCases[] = {
    {"engine=simple pop=20 elites=4 seed=19",
     "engine=simple pop=20 elites=4 seed=19"},
    {"engine=master-slave pop=20 elites=4 seed=19",
     "engine=simple pop=20 elites=4 seed=19"},
    {"engine=cellular width=5 height=4 seed=19",
     "engine=cellular width=5 height=4 seed=19"},
    {"engine=island islands=3 pop=10 interval=2 seed=19",
     "engine=island islands=3 pop=10 interval=2 seed=19"},
    {"engine=islands-of-cellular islands=2 width=4 height=3 interval=2 seed=19",
     "engine=islands-of-cellular islands=2 width=4 height=3 interval=2 "
     "seed=19"},
    {"engine=quantum islands=2 pop=8 seed=19",
     "engine=quantum islands=2 pop=8 seed=19"},
    {"engine=memetic pop=14 interval=2 refine=2 budget=40 seed=19",
     "engine=memetic pop=14 interval=2 refine=2 budget=40 seed=19"},
    {"engine=cluster ranks=2 pop=10 interval=2 seed=19",
     "engine=cluster ranks=2 pop=10 interval=2 seed=19"},
};

class BackendEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(BackendEquivalence, TraceBitIdenticalToSerialWithAndWithoutCache) {
  const std::string base = GetParam().spec;
  const StopCondition stop = StopCondition::generations(6);
  const ProblemPtr problem = flow_shop();
  const RunResult serial =
      Solver::build(
          SolverSpec::parse(std::string(GetParam().serial_spec) +
                            " eval=serial"),
          problem)
          .run(stop);
  for (const char* eval : {" eval=pool", " eval=omp"}) {
    SCOPED_TRACE(base + eval);
    const RunResult parallel =
        Solver::build(SolverSpec::parse(base + eval), problem).run(stop);
    EXPECT_EQ(serial.history, parallel.history);
    EXPECT_EQ(serial.best.seq, parallel.best.seq);
    EXPECT_EQ(serial.best_objective, parallel.best_objective);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    // Cache and parallel backend on together: still the exact serial
    // uncached baseline.
    const RunResult both =
        Solver::build(SolverSpec::parse(base + eval + " eval_cache=lru:65536"),
                      problem)
            .run(stop);
    EXPECT_EQ(serial.history, both.history);
    EXPECT_EQ(serial.best.seq, both.best.seq);
    EXPECT_EQ(serial.evaluations, both.evaluations);
    ASSERT_TRUE(both.cache.has_value());
    EXPECT_EQ(both.cache->hits + both.cache->misses, both.evaluations);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BackendEquivalence,
                         ::testing::ValuesIn(kEngineCases));

// --- stress: worker counts x repeated seeds ----------------------------------

TEST(BackendEquivalence, StressOneToSixteenThreadsRepeatedSeeds) {
  const ProblemPtr problem = flow_shop();
  const StopCondition stop = StopCondition::generations(5);
  for (const std::uint64_t seed : {1ull, 5ull, 9ull, 13ull, 17ull}) {
    GaConfig cfg;
    cfg.population = 16;
    cfg.elites = 2;
    cfg.seed = seed;
    SimpleGa serial(problem, cfg);
    const RunResult expect = serial.run(stop);
    for (const int threads : {1, 2, 3, 4, 8, 16}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      par::ThreadPool pool(threads);
      GaConfig pool_cfg = cfg;
      pool_cfg.eval_backend = EvalBackend::kThreadPool;
      SimpleGa parallel(problem, pool_cfg, &pool);
      const RunResult got = parallel.run(stop);
      EXPECT_EQ(expect.history, got.history);
      EXPECT_EQ(expect.best.seq, got.best.seq);
      EXPECT_EQ(expect.evaluations, got.evaluations);
    }
  }
}

}  // namespace
}  // namespace psga::ga
