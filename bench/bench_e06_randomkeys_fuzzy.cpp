// E06 — Huang et al. [24]: fuzzy flow shop with random keys, parameterized
// uniform crossover and immigration (a% elites + b% crossover + c% random),
// organized island-style in CUDA blocks. Paper: 19x speedup with CUDA on
// 200-job cases; the modified GA converges to high-agreement schedules.
//
// Reproduction: (1) quality — the [24]-style GA on a fuzzified 200-job
// flow shop improves mean agreement; (2) throughput — thread-parallel
// block evaluation scaling plus the SIMT model's CUDA-class prediction.
#include "bench/bench_util.h"
#include "src/ga/solver.h"
#include "src/ga/problem_registry.h"
#include "src/par/simt_model.h"
#include "src/sched/taillard.h"

int main() {
  using namespace psga;
  bench::header("E06 randomkeys_fuzzy", "Huang et al. [24], §III.D",
                "random-keys GA with immigration on fuzzy flow shop; 19x "
                "CUDA speedup at 200 jobs");

  const int jobs = 40 * bench::scale();  // paper: up to 200 jobs
  const auto crisp = sched::taillard_flow_shop(jobs, 10, 20050320);
  auto problem = ga::make_problem(
      sched::fuzzify(crisp.proc, 0.2, 1.6, 0.8));

  // a% best + b% crossover + c% random immigration, a+b+c = 100 ([24]).
  ga::IslandGaConfig cfg;
  cfg.islands = 4;  // "blocks" without inter-block migration
  cfg.migration.interval = 0;
  cfg.base.population = 64;
  cfg.base.elites = 6;                  // a = ~10%
  cfg.base.immigration_fraction = 0.1;  // c = 10%
  cfg.base.termination.max_generations = 60;
  cfg.base.ops.crossover = std::make_shared<ga::UniformKeyCrossover>(0.7);
  cfg.base.ops.mutation = std::make_shared<ga::KeyCreepMutation>();
  cfg.base.ops.selection = std::make_shared<ga::TournamentSelection>(2);
  cfg.base.seed = 24;

  const auto engine = ga::make_engine(problem, cfg);
  const auto result = engine->run();
  stats::Table quality({"metric", "initial", "final"});
  quality.add_row({"1 - mean agreement (minimized)",
                   stats::Table::num(result.history.front(), 4),
                   stats::Table::num(result.best_objective, 4)});
  quality.add_row({"mean agreement index",
                   stats::Table::num(1.0 - result.history.front(), 4),
                   stats::Table::num(1.0 - result.best_objective, 4)});
  quality.print();

  // Throughput: parallel fitness evaluation scaling.
  stats::Table scaling({"workers", "seconds", "speedup"});
  ga::GaConfig ms = cfg.base;
  ms.population = 256;
  ms.termination.max_generations = 8;
  ms.eval_backend = ga::EvalBackend::kThreadPool;  // the master-slave model
  double base_s = 0.0;
  for (int workers : {1, 4, 8, 16}) {
    par::ThreadPool pool(workers);
    const auto engine2 = ga::make_engine(problem, ms, &pool);
    const double s = bench::time_seconds([&] { engine2->run(); });
    if (workers == 1) base_s = s;
    scaling.add_row({std::to_string(workers), stats::Table::num(s, 3),
                     stats::Table::num(base_s / s, 2) + "x"});
  }
  scaling.print();

  par::SimtModelParams gtx285;
  gtx285.lanes = 240;  // GTX 285
  par::SimtModel model(gtx285);
  std::printf("\nSIMT model (GTX285-class, 240 lanes): predicted %.1fx "
              "(paper: ~19x at 200 jobs).\n",
              model.speedup(256, 200.0));
  return 0;
}
