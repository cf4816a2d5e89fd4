// E04 — Mui et al. [17]: job shop GA with prior-rule active schedules,
// elitist + roulette selection, run master-slave on a 6-computer server.
// Paper: 6 processors save 3-4x execution time vs the sequential version.
//
// Reproduction: the same GA (GT active decoding, elitist-roulette
// selection) serial vs 6 workers; report the time ratio.
#include "bench/bench_util.h"
#include "src/ga/solver.h"
#include "src/ga/problem_registry.h"
#include "src/ga/registry.h"
#include "src/sched/classics.h"

int main() {
  using namespace psga;
  bench::header("E04 mui_six_workers", "Mui et al. [17], §III.B",
                "master-slave GA with 6 processors saves 3-4x execution "
                "time vs the sequential version");

  auto problem = ga::make_problem(
      sched::ft20().instance, ga::JobShopProblem::Decoder::kGifflerThompson);

  ga::GaConfig cfg;
  cfg.population = 120;
  cfg.termination.max_generations = 10 * bench::scale();
  cfg.seed = 17;
  cfg.ops.selection = ga::make_selection("elitist-roulette");  // [17]'s mix
  cfg.ops.crossover = ga::make_crossover("jox");
  cfg.ops.mutation = ga::make_mutation("shift");  // neighborhood search

  double serial_s;
  {
    const auto serial = ga::make_engine(problem, cfg);
    serial_s = bench::time_seconds([&] { serial->run(); });
  }
  stats::Table table({"configuration", "seconds", "time saving"});
  table.add_row({"sequential", stats::Table::num(serial_s, 3), "1.00x"});
  par::ThreadPool pool(6);
  cfg.eval_backend = ga::EvalBackend::kThreadPool;  // the master-slave model
  const auto parallel = ga::make_engine(problem, cfg, &pool);
  const double parallel_s = bench::time_seconds([&] { parallel->run(); });
  table.add_row({"master-slave, 6 workers", stats::Table::num(parallel_s, 3),
                 stats::Table::num(serial_s / parallel_s, 2) + "x"});
  table.print();
  std::printf("\nPaper: 3-4x with 6 processors (communication overhead "
              "keeps it below the ideal 6x).\n");
  return 0;
}
