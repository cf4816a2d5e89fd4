// Local search helpers for the hybrid/memetic variants: the swap/insert
// hill climber and the Redirect perturbation of Rashidi et al. [38].
#pragma once

#include "src/ga/evaluator.h"
#include "src/ga/genome.h"
#include "src/ga/problem.h"
#include "src/par/rng.h"

namespace psga::ga {

/// First-improvement hill climbing over the swap neighborhood of the
/// sequencing chromosome, bounded by `max_evaluations`. Returns the final
/// objective; `genome` is updated in place. `workspace` is an optional
/// reusable evaluation scratch from problem.make_workspace() (one is
/// created for the climb when null).
double local_search_swap(const Problem& problem, Genome& genome,
                         int max_evaluations, par::Rng& rng,
                         Workspace* workspace = nullptr);

/// Same climb, but every objective goes through `evaluator` — so climbs
/// are counted toward evaluation budgets exactly like GA evaluations,
/// memoized by the evaluation cache, and metered as decodes. The memetic
/// engine uses this overload.
double local_search_swap(Evaluator& evaluator, Genome& genome,
                         int max_evaluations, par::Rng& rng);

/// Redirect procedure ([38]): a strong perturbation that re-aims the
/// search — scrambles a random quarter of the sequencing chromosome.
void redirect(Genome& genome, par::Rng& rng);

}  // namespace psga::ga
