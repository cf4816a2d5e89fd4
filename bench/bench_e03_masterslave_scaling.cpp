// E03 — Somani & Singh [16]: topological-sort GA on CUDA; speedup grows
// with problem size, ~9x for large instances vs the sequential GA.
//
// Reproduction: master-slave wall-clock speedup vs the serial engine as
// the job-shop instance grows. Small instances are overhead-bound (low
// speedup), large instances approach the worker count — the paper's shape.
#include "bench/bench_util.h"
#include "src/ga/solver.h"
#include "src/ga/problem_registry.h"
#include "src/sched/generators.h"

int main() {
  using namespace psga;
  bench::header("E03 masterslave_scaling", "Somani & Singh [16], §III.B",
                "parallel GA ~9x faster than sequential for LARGE problems; "
                "smaller gains on small problems");

  const int workers = 8;
  par::ThreadPool pool(workers);

  stats::Table table({"jobs x machines", "serial s", "parallel s",
                      "speedup", "efficiency"});
  struct Case {
    int jobs;
    int machines;
  };
  for (const Case c : {Case{6, 6}, Case{15, 10}, Case{30, 15}, Case{50, 20}}) {
    auto problem = ga::make_problem(
        sched::random_job_shop(c.jobs, c.machines,
                               static_cast<std::uint64_t>(c.jobs) * 100 + 7),
        ga::JobShopProblem::Decoder::kGifflerThompson);
    ga::GaConfig cfg;
    cfg.population = 64;
    cfg.termination.max_generations = 4 * bench::scale();
    cfg.seed = 3;

    double serial_s = 0.0;
    double parallel_s = 0.0;
    {
      const auto serial = ga::make_engine(problem, cfg);
      serial_s = bench::time_seconds([&] { serial->run(); });
    }
    {
      ga::GaConfig master_slave = cfg;
      master_slave.eval_backend = ga::EvalBackend::kThreadPool;
      const auto parallel = ga::make_engine(problem, master_slave, &pool);
      parallel_s = bench::time_seconds([&] { parallel->run(); });
    }
    const double speedup = serial_s / parallel_s;
    table.add_row({std::to_string(c.jobs) + "x" + std::to_string(c.machines),
                   stats::Table::num(serial_s, 3),
                   stats::Table::num(parallel_s, 3),
                   stats::Table::num(speedup, 2) + "x",
                   stats::Table::num(speedup / workers, 2)});
  }
  table.print();
  std::printf("\nExpected shape: speedup grows with instance size "
              "(paper: ~9x for large-scale problems).\n");
  return 0;
}
