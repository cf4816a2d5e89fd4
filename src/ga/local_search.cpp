#include "src/ga/local_search.h"

#include <algorithm>
#include <memory>

namespace psga::ga {

namespace {

/// The climb itself, over any objective functor — the two public
/// overloads only differ in where objective values come from.
template <typename Objective>
double climb_swap(Objective&& objective, Genome& genome, int max_evaluations,
                  par::Rng& rng) {
  double best = objective(genome);
  const std::size_t n = genome.seq.size();
  if (n < 2) return best;
  int budget = max_evaluations;
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    // Randomized first-improvement sweep.
    const std::size_t offset = rng.below(n);
    for (std::size_t step = 0; step < n && budget > 0; ++step) {
      const std::size_t i = (offset + step) % n;
      const std::size_t j = rng.below(n);
      if (i == j || genome.seq[i] == genome.seq[j]) continue;
      std::swap(genome.seq[i], genome.seq[j]);
      const double candidate = objective(genome);
      --budget;
      if (candidate < best) {
        best = candidate;
        improved = true;
      } else {
        std::swap(genome.seq[i], genome.seq[j]);  // undo
      }
    }
  }
  return best;
}

}  // namespace

double local_search_swap(const Problem& problem, Genome& genome,
                         int max_evaluations, par::Rng& rng,
                         Workspace* workspace) {
  std::unique_ptr<Workspace> owned;
  if (workspace == nullptr) {
    owned = problem.make_workspace();
    workspace = owned.get();
  }
  return climb_swap(
      [&](const Genome& g) { return problem.objective(g, *workspace); },
      genome, max_evaluations, rng);
}

double local_search_swap(Evaluator& evaluator, Genome& genome,
                         int max_evaluations, par::Rng& rng) {
  double best = 0.0;
  evaluator.metered_singles([&] {
    best = climb_swap(
        [&](const Genome& g) { return evaluator.evaluate_one(g); }, genome,
        max_evaluations, rng);
  });
  return best;
}

void redirect(Genome& genome, par::Rng& rng) {
  const std::size_t n = genome.seq.size();
  if (n < 4) return;
  const std::size_t len = std::max<std::size_t>(2, n / 4);
  const std::size_t lo = rng.below(n - len + 1);
  for (std::size_t i = lo + len - 1; i > lo; --i) {
    const std::size_t j = lo + rng.below(i - lo + 1);
    std::swap(genome.seq[i], genome.seq[j]);
  }
}

}  // namespace psga::ga
