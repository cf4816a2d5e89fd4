// E02 — AitZai et al. [14]: job shop with blocking-style heavy evaluation,
// master-slave GA under a fixed wall-clock budget. Paper: the GPU
// master-slave GA explored up to 15x more solutions than the CPU version
// in the same 300 s budget (population 1056).
//
// Reproduction: explored-solutions count under a fixed (scaled-down)
// budget vs worker count on the thread pool, plus the SIMT model's
// prediction for a GPU-sized lane count.
#include "bench/bench_util.h"
#include "src/ga/solver.h"
#include "src/ga/problem_registry.h"
#include "src/par/simt_model.h"
#include "src/sched/classics.h"

int main() {
  using namespace psga;
  bench::header(
      "E02 masterslave_budget", "AitZai et al. [14], §III.B",
      "GPU master-slave GA explores up to 15x more solutions than 1-core "
      "CPU in an equal time budget (population 1056)");

  // The paper's evaluation is expensive (alternative-graph longest paths);
  // the GT active-schedule decoder is our closest expensive decoder.
  auto problem = ga::make_problem(
      sched::ft10().instance, ga::JobShopProblem::Decoder::kGifflerThompson);

  ga::GaConfig cfg;
  cfg.population = 1056;  // the paper's population size
  cfg.seed = 1;
  cfg.eval_backend = ga::EvalBackend::kThreadPool;  // the master-slave model
  const double budget = 0.3 * bench::scale();  // scaled stand-in for 300 s

  stats::Table table({"workers", "explored solutions", "vs 1 worker"});
  long long base = 0;
  for (int workers : {1, 2, 4, 8, 16, 24}) {
    par::ThreadPool pool(workers);
    const auto engine = ga::make_engine(problem, cfg, &pool);
    const ga::GaResult result =
        engine->run(ga::StopCondition::time_budget(budget));
    if (workers == 1) base = result.evaluations;
    table.add_row({std::to_string(workers), std::to_string(result.evaluations),
                   stats::Table::num(static_cast<double>(result.evaluations) /
                                         static_cast<double>(base),
                                     2) +
                       "x"});
  }
  table.print();

  // SIMT extrapolation for the paper's GPU-class device.
  par::SimtModelParams gpu;  // defaults model a Tesla-class part
  par::SimtModel model(gpu);
  const double per_eval_us = 50.0;
  const double predicted = model.speedup(1056, per_eval_us);
  std::printf(
      "\nSIMT model (448 lanes, divergence 0.85, 4x lane slowdown):\n"
      "  predicted explored-solutions ratio vs 1 core: %.1fx "
      "(paper: ~15x)\n",
      predicted);
  return 0;
}
