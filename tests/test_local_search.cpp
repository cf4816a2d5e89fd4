#include "src/ga/local_search.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/ga/problems.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

TEST(LocalSearch, NeverWorsens) {
  auto problem = std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
  par::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    Genome g = problem->random_genome(rng);
    const double before = problem->objective(g);
    const double after = local_search_swap(*problem, g, 100, rng);
    EXPECT_LE(after, before);
    EXPECT_DOUBLE_EQ(problem->objective(g), after);
    EXPECT_TRUE(genome_valid(g, problem->traits()));
  }
}

TEST(LocalSearch, UsuallyImprovesRandomStarts) {
  auto problem = std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
  par::Rng rng(2);
  int improved = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Genome g = problem->random_genome(rng);
    const double before = problem->objective(g);
    if (local_search_swap(*problem, g, 200, rng) < before) ++improved;
  }
  EXPECT_GE(improved, 8);
}

TEST(LocalSearch, RespectsEvaluationBudget) {
  // A budget of zero must leave the genome untouched.
  auto problem = std::make_shared<JobShopProblem>(sched::ft06().instance);
  par::Rng rng(3);
  Genome g = problem->random_genome(rng);
  const Genome before = g;
  local_search_swap(*problem, g, 0, rng);
  EXPECT_EQ(g.seq, before.seq);
}

TEST(LocalSearch, WorksOnRepetitionChromosomes) {
  auto problem = std::make_shared<JobShopProblem>(sched::ft06().instance);
  par::Rng rng(4);
  Genome g = problem->random_genome(rng);
  const double before = problem->objective(g);
  const double after = local_search_swap(*problem, g, 150, rng);
  EXPECT_LE(after, before);
  EXPECT_TRUE(genome_valid(g, problem->traits()));
}

TEST(LocalSearch, EvaluatorClimbIsMeteredAsOneBatch) {
  // Each single decode is counted at once; the climb's time and size
  // are recorded as one eval.decode_ns / eval.batch_size sample.
  auto problem = std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
  auto metrics = std::make_shared<obs::Registry>();
  Evaluator evaluator(problem);
  evaluator.set_obs(metrics, nullptr);
  par::Rng rng(5);
  for (int climb = 0; climb < 3; ++climb) {
    Genome g = problem->random_genome(rng);
    local_search_swap(evaluator, g, 50, rng);
  }
  const obs::MetricsSnapshot snapshot = metrics->snapshot();
  const std::uint64_t* decoded = snapshot.counter("eval.decoded_genomes");
  const obs::HistogramSnapshot* decode_ns =
      snapshot.histogram("eval.decode_ns");
  const obs::HistogramSnapshot* batch = snapshot.histogram("eval.batch_size");
  ASSERT_NE(decoded, nullptr);
  ASSERT_NE(decode_ns, nullptr);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(*decoded, static_cast<std::uint64_t>(evaluator.decode_calls()));
  EXPECT_EQ(evaluator.decode_calls(), evaluator.evaluations());
  EXPECT_EQ(decode_ns->count, 3u);
  EXPECT_EQ(batch->count, 3u);
  EXPECT_EQ(batch->sum, *decoded);
}

TEST(Redirect, PreservesMultiset) {
  par::Rng rng(5);
  Genome g;
  g.seq = {0, 1, 2, 3, 4, 5, 6, 7, 0, 1};
  Genome before = g;
  redirect(g, rng);
  auto sorted_before = before.seq;
  auto sorted_after = g.seq;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_before, sorted_after);
}

TEST(Redirect, TinySequencesUntouched) {
  par::Rng rng(6);
  Genome g;
  g.seq = {0, 1, 2};
  const Genome before = g;
  redirect(g, rng);
  EXPECT_EQ(g.seq, before.seq);
}

}  // namespace
}  // namespace psga::ga
