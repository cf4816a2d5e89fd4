// The master-slave (global parallel) model of Table III: one population
// on the master, fitness evaluation farmed out to worker lanes. It is the
// simple GA with a parallel evaluation backend — engine=master-slave in
// the registry — and, as the survey says, the one parallel model that
// does not change the algorithm's behaviour.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr problem() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

GaConfig config(std::uint64_t seed = 11) {
  GaConfig cfg;
  cfg.population = 48;
  cfg.termination.max_generations = 25;
  cfg.seed = seed;
  return cfg;
}

/// The master-slave engine: the simple GA on the thread-pool backend.
GaConfig master_slave(GaConfig cfg) {
  cfg.eval_backend = EvalBackend::kThreadPool;
  return cfg;
}

TEST(MasterSlave, TraceIdenticalToSerialGa) {
  // The survey: the master-slave model "is the only one that does not
  // affect the behavior of the algorithm". Enforce it bit-exactly.
  SimpleGa serial(problem(), config());
  const GaResult serial_result = serial.run();
  for (int threads : {1, 2, 4, 8}) {
    par::ThreadPool pool(threads);
    SimpleGa parallel(problem(), master_slave(config()), &pool);
    const GaResult parallel_result = parallel.run();
    EXPECT_EQ(serial_result.history, parallel_result.history)
        << "threads=" << threads;
    EXPECT_EQ(serial_result.best.seq, parallel_result.best.seq);
    EXPECT_EQ(serial_result.evaluations, parallel_result.evaluations);
  }
}

TEST(MasterSlave, TraceIdenticalOnJobShop) {
  auto js = std::make_shared<JobShopProblem>(sched::ft06().instance);
  GaConfig cfg = config(5);
  SimpleGa serial(js, cfg);
  par::ThreadPool pool(6);
  SimpleGa parallel(js, master_slave(cfg), &pool);
  EXPECT_EQ(serial.run().history, parallel.run().history);
}

TEST(MasterSlave, DeterministicAcrossRuns) {
  par::ThreadPool pool(4);
  SimpleGa a(problem(), master_slave(config(9)), &pool);
  SimpleGa b(problem(), master_slave(config(9)), &pool);
  EXPECT_EQ(a.run().history, b.run().history);
}

TEST(MasterSlave, TimeBudgetModeCountsExploredSolutions) {
  par::ThreadPool pool(4);
  SimpleGa ga(problem(), master_slave(config()), &pool);
  const GaResult result = ga.run(StopCondition::time_budget(0.2));
  EXPECT_GT(result.evaluations, 0);
  EXPECT_GE(result.seconds, 0.15);
  EXPECT_LT(result.seconds, 3.0);
  // More budget => at least as many explored solutions.
  SimpleGa ga2(problem(), master_slave(config()), &pool);
  const GaResult longer = ga2.run(StopCondition::time_budget(0.5));
  EXPECT_GT(longer.evaluations, result.evaluations / 2);
}

TEST(MasterSlave, UsesDefaultPoolWhenNull) {
  SimpleGa ga(problem(), master_slave(config()));
  const GaResult result = ga.run();
  EXPECT_GT(result.evaluations, 0);
}

TEST(MasterSlave, OpenMpBackendMatchesThreadPoolTrace) {
  // Backend choice must not change the algorithm — same invariance as the
  // serial/parallel equality, across runtimes.
  GaConfig pool_cfg = config(21);
  pool_cfg.eval_backend = EvalBackend::kThreadPool;
  GaConfig omp_cfg = config(21);
  omp_cfg.eval_backend = EvalBackend::kOpenMp;
  SimpleGa pool_engine(problem(), pool_cfg);
  SimpleGa omp_engine(problem(), omp_cfg);
  const GaResult a = pool_engine.run();
  const GaResult b = omp_engine.run();
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.best.seq, b.best.seq);
}

TEST(MasterSlave, BudgetModeIgnoresGenerationCap) {
  GaConfig cfg = config();
  cfg.termination.max_generations = 1;  // would stop immediately in run()
  par::ThreadPool pool(4);
  SimpleGa ga(problem(), master_slave(cfg), &pool);
  const GaResult result = ga.run(StopCondition::time_budget(0.15));
  EXPECT_GT(result.generations, 1);
}

// --- the registry entry ------------------------------------------------------

EvalBackend built_backend(const std::string& text) {
  Solver solver = Solver::build(SolverSpec::parse(text), problem());
  auto* simple = dynamic_cast<SimpleGa*>(&solver.engine());
  EXPECT_NE(simple, nullptr) << text;
  return simple != nullptr ? simple->evaluator().backend()
                           : EvalBackend::kSerial;
}

TEST(MasterSlave, SpecPromotesSerialToThreadPool) {
  // No eval token and an explicit eval=serial both land on the pool: a
  // serial master-slave engine is a contradiction in terms.
  EXPECT_EQ(built_backend("engine=master-slave pop=8"),
            EvalBackend::kThreadPool);
  EXPECT_EQ(built_backend("engine=master-slave pop=8 eval=serial"),
            EvalBackend::kThreadPool);
  EXPECT_EQ(built_backend("engine=master-slave pop=8 eval=pool"),
            EvalBackend::kThreadPool);
}

TEST(MasterSlave, SpecKeepsOpenMp) {
  EXPECT_EQ(built_backend("engine=master-slave pop=8 eval=omp"),
            EvalBackend::kOpenMp);
}

TEST(MasterSlave, AsyncPoolIsAnUnknownBackend) {
  EXPECT_THROW(SolverSpec::parse("eval=async_pool"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("engine=master-slave eval=async"),
               std::invalid_argument);
}

}  // namespace
}  // namespace psga::ga
