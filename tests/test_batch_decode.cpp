// The batch decode kernels (sched/batch_decode.h) and the eval_batch
// chunking policy must be invisible in every objective: for any batch
// size and any backend, the batched path returns exactly what the scalar
// decoders return. These tests pin that contract at three levels —
// the raw kernels against their scalar twins, the Evaluator's chunked
// objective_batch across every registered problem × batch size ×
// backend, and whole engine traces across eval_batch= values — plus the
// early-exit semantics of the job-shop kernel and the eval_batch spec
// token round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ga/problem_spec.h"
#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/batch_decode.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

using sched::Criterion;
using sched::Time;

sched::FlowShopInstance taillard_instance() {
  return sched::make_taillard(sched::taillard_20x5().front());
}

std::vector<std::vector<int>> random_permutations(int count, int jobs,
                                                  std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<std::vector<int>> perms(static_cast<std::size_t>(count));
  for (auto& perm : perms) {
    perm.resize(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) perm[static_cast<std::size_t>(j)] = j;
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
  }
  return perms;
}

std::vector<std::span<const int>> as_lanes(
    const std::vector<std::vector<int>>& perms) {
  std::vector<std::span<const int>> lanes;
  lanes.reserve(perms.size());
  for (const auto& p : perms) lanes.emplace_back(p);
  return lanes;
}

// --- flow-shop kernel vs scalar ----------------------------------------------

TEST(FlowShopBatchKernel, MakespanBitIdenticalToScalarForEveryBatchSize) {
  const sched::FlowShopInstance inst = taillard_instance();
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  for (int size : {1, 2, 7, 16, 33}) {
    SCOPED_TRACE(size);
    const auto perms = random_permutations(size, inst.jobs, 11 + size);
    const auto lanes = as_lanes(perms);
    std::vector<Time> got(lanes.size(), -1);
    sched::flow_shop_makespan_batch(inst, lanes, got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(got[l], sched::flow_shop_makespan(inst, lanes[l], scalar))
          << "lane " << l;
    }
  }
}

TEST(FlowShopBatchKernel, ObjectiveMatchesScalarForEveryCriterion) {
  sched::FlowShopInstance inst = taillard_instance();
  // Engage the due-date/weight paths too.
  inst.attrs.due.assign(static_cast<std::size_t>(inst.jobs), 0);
  inst.attrs.weight.assign(static_cast<std::size_t>(inst.jobs), 1.0);
  for (int j = 0; j < inst.jobs; ++j) {
    inst.attrs.due[static_cast<std::size_t>(j)] = 40 * (j + 1);
    inst.attrs.weight[static_cast<std::size_t>(j)] = 1.0 + 0.25 * (j % 4);
  }
  const auto perms = random_permutations(9, inst.jobs, 23);
  const auto lanes = as_lanes(perms);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  for (Criterion c :
       {Criterion::kMakespan, Criterion::kTotalWeightedCompletion,
        Criterion::kTotalWeightedTardiness, Criterion::kWeightedUnitPenalty,
        Criterion::kMaxTardiness}) {
    SCOPED_TRACE(sched::to_string(c));
    std::vector<double> got(lanes.size(), -1.0);
    sched::flow_shop_objective_batch(inst, lanes, c, got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(got[l], sched::flow_shop_objective(inst, lanes[l], c, scalar))
          << "lane " << l;
    }
  }
}

TEST(FlowShopBatchKernel, ScratchRepacksWhenTheInstanceChanges) {
  const sched::FlowShopInstance a = taillard_instance();
  sched::FlowShopInstance b_mut = a;
  b_mut.proc[0][0] += 17;  // distinct data at a distinct address
  const sched::FlowShopInstance& b = b_mut;
  const auto perms = random_permutations(5, a.jobs, 31);
  const auto lanes = as_lanes(perms);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  std::vector<Time> got(lanes.size());
  // Same scratch, alternating instances: the pack must follow the
  // instance, not stick to whichever was seen first.
  for (const sched::FlowShopInstance* inst : {&a, &b, &a}) {
    sched::flow_shop_makespan_batch(*inst, lanes, got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(got[l], sched::flow_shop_makespan(*inst, lanes[l], scalar));
    }
  }
}

TEST(FlowShopBatchKernel, WideInstancesFallBackToExactInt64Lanes) {
  // Durations large enough that completion times overflow int32: the
  // kernel must take the wide (Time) path and still match the scalar
  // decoder exactly.
  sched::FlowShopInstance inst = taillard_instance();
  for (auto& row : inst.proc) {
    for (auto& t : row) t += 1'000'000'000;
  }
  const auto perms = random_permutations(7, inst.jobs, 13);
  const auto lanes = as_lanes(perms);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  std::vector<Time> got(lanes.size());
  sched::flow_shop_makespan_batch(inst, lanes, got, batch);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    EXPECT_EQ(got[l], sched::flow_shop_makespan(inst, lanes[l], scalar));
    EXPECT_GT(got[l], std::numeric_limits<std::int32_t>::max());
  }
}

TEST(FlowShopBatchKernel, ThrowsOnWrongLaneLength) {
  const sched::FlowShopInstance inst = taillard_instance();
  sched::FlowShopBatchScratch batch;
  auto perms = random_permutations(3, inst.jobs, 7);
  perms[1].pop_back();
  std::vector<Time> out(perms.size());
  EXPECT_THROW(
      sched::flow_shop_makespan_batch(inst, as_lanes(perms), out, batch),
      std::invalid_argument);
  perms[1].push_back(0);
  perms[1].push_back(0);  // now one too long
  EXPECT_THROW(
      sched::flow_shop_makespan_batch(inst, as_lanes(perms), out, batch),
      std::invalid_argument);
}

// --- flow-shop scalar length validation (regression for the small fix) -------

TEST(FlowShopScalar, RejectsPartialPermutations) {
  const sched::FlowShopInstance inst = taillard_instance();
  std::vector<int> perm(static_cast<std::size_t>(inst.jobs));
  for (int j = 0; j < inst.jobs; ++j) perm[static_cast<std::size_t>(j)] = j;
  sched::FlowShopScratch scratch;
  EXPECT_NO_THROW(sched::flow_shop_makespan(inst, perm, scratch));

  std::vector<int> shorter(perm.begin(), perm.end() - 1);
  EXPECT_THROW(sched::flow_shop_makespan(inst, shorter),
               std::invalid_argument);
  EXPECT_THROW(sched::flow_shop_makespan(inst, shorter, scratch),
               std::invalid_argument);
  EXPECT_THROW(sched::flow_shop_completion_times(inst, shorter),
               std::invalid_argument);
  EXPECT_THROW(sched::flow_shop_schedule(inst, shorter),
               std::invalid_argument);

  std::vector<int> longer = perm;
  longer.push_back(0);
  EXPECT_THROW(sched::flow_shop_makespan(inst, longer, scratch),
               std::invalid_argument);

  // The constructive-heuristic escape hatch still accepts prefixes...
  EXPECT_NO_THROW(sched::flow_shop_makespan_prefix(inst, shorter, scratch));
  // ...and a full permutation through it matches the strict entry point.
  EXPECT_EQ(sched::flow_shop_makespan_prefix(inst, perm, scratch),
            sched::flow_shop_makespan(inst, perm));
  // ...but still rejects overlong sequences.
  EXPECT_THROW(sched::flow_shop_makespan_prefix(inst, longer, scratch),
               std::invalid_argument);
}

// --- job-shop kernel vs scalar -----------------------------------------------

std::vector<std::vector<int>> random_op_sequences(
    const sched::JobShopInstance& inst, int count, std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<std::vector<int>> seqs(static_cast<std::size_t>(count));
  for (auto& s : seqs) s = sched::random_operation_sequence(inst, rng);
  return seqs;
}

TEST(JobShopBatchKernel, SemiActiveMatchesScalarDecoder) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  sched::JobShopScratch scalar;
  sched::JobShopBatchScratch batch;
  for (int size : {1, 2, 7, 16, 33}) {
    SCOPED_TRACE(size);
    const auto seqs = random_op_sequences(inst, size, 41 + size);
    const auto lanes = as_lanes(seqs);
    std::vector<double> got(lanes.size(), -1.0);
    sched::job_shop_objective_batch(inst, lanes,
                                    sched::JobShopBatchDecoder::kSemiActive,
                                    Criterion::kMakespan, got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const sched::Schedule& schedule =
          sched::decode_operation_based(inst, lanes[l], scalar);
      EXPECT_EQ(got[l], sched::job_shop_objective(inst, schedule,
                                                  Criterion::kMakespan, scalar))
          << "lane " << l;
    }
  }
}

TEST(JobShopBatchKernel, ActiveMatchesGifflerThompsonSequence) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  sched::JobShopScratch scalar;
  sched::JobShopBatchScratch batch;
  const auto seqs = random_op_sequences(inst, 33, 53);
  const auto lanes = as_lanes(seqs);
  std::vector<double> got(lanes.size(), -1.0);
  sched::job_shop_objective_batch(inst, lanes,
                                  sched::JobShopBatchDecoder::kActive,
                                  Criterion::kMakespan, got, batch);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const sched::Schedule& schedule =
        sched::giffler_thompson_sequence(inst, lanes[l], scalar);
    EXPECT_EQ(got[l], sched::job_shop_objective(inst, schedule,
                                                Criterion::kMakespan, scalar))
        << "lane " << l;
  }
}

TEST(JobShopBatchKernel, EarlyExitIsExactBelowTheIncumbentAndBoundsAbove) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  sched::JobShopBatchScratch batch;
  const auto seqs = random_op_sequences(inst, 33, 67);
  const auto lanes = as_lanes(seqs);

  std::vector<double> exact(lanes.size());
  sched::job_shop_objective_batch(inst, lanes,
                                  sched::JobShopBatchDecoder::kSemiActive,
                                  Criterion::kMakespan, exact, batch);

  // Incumbent at the median: roughly half the lanes must prune.
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  const double incumbent = sorted[sorted.size() / 2];

  std::vector<double> pruned(lanes.size(), -1.0);
  sched::job_shop_objective_batch(inst, lanes,
                                  sched::JobShopBatchDecoder::kSemiActive,
                                  Criterion::kMakespan, pruned, batch,
                                  incumbent);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    SCOPED_TRACE(l);
    if (exact[l] < incumbent) {
      // Survivors are bit-identical to the exact decode.
      EXPECT_EQ(pruned[l], exact[l]);
    } else {
      // Pruned lanes report a lower bound that still certifies the
      // discard: >= incumbent, never above the true value.
      EXPECT_GE(pruned[l], incumbent);
      EXPECT_LE(pruned[l], exact[l]);
    }
  }

  // A non-makespan criterion must ignore the incumbent entirely.
  std::vector<double> tardiness_exact(lanes.size());
  std::vector<double> tardiness_incumbent(lanes.size());
  sched::job_shop_objective_batch(
      inst, lanes, sched::JobShopBatchDecoder::kSemiActive,
      Criterion::kTotalWeightedCompletion, tardiness_exact, batch);
  sched::job_shop_objective_batch(
      inst, lanes, sched::JobShopBatchDecoder::kSemiActive,
      Criterion::kTotalWeightedCompletion, tardiness_incumbent, batch, 1.0);
  EXPECT_EQ(tardiness_exact, tardiness_incumbent);
}

TEST(JobShopBatchKernel, ThrowsOnWrongSequenceLength) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  sched::JobShopBatchScratch batch;
  auto seqs = random_op_sequences(inst, 2, 3);
  seqs[1].pop_back();
  std::vector<double> out(seqs.size());
  EXPECT_THROW(sched::job_shop_objective_batch(
                   inst, as_lanes(seqs), sched::JobShopBatchDecoder::kSemiActive,
                   Criterion::kMakespan, out, batch),
               std::invalid_argument);
}

// --- batch-vs-scalar equivalence across the whole registry -------------------

// Every registered problem (plus the alternate encodings/decoders that
// select different objective_batch code paths). Fuzzed genomes, batch
// sizes {1,2,7,16,33}, all four backends: the chunked batch path must
// reproduce the scalar per-genome objective bit for bit. (The double
// models run the same arithmetic in the same order on both paths, so
// exact equality is the right bar there too.)
const char* kProblemSpecs[] = {
    "problem=flowshop instance=gen:jobs=12,machines=5,seed=3",
    "problem=flowshop instance=gen:jobs=12,machines=5,seed=3 "
    "criterion=total-flow",
    "problem=flowshop encoding=random-key instance=gen:jobs=12,machines=5,"
    "seed=3",
    "problem=jobshop instance=ft06",
    "problem=jobshop decoder=active instance=ft06",
    "problem=jobshop encoding=rules instance=ft06",
    "problem=openshop decoder=lpt-machine instance=gen:jobs=4,machines=3,"
    "seed=5",
    "problem=hybrid-flowshop instance=gen:jobs=5,stages=2x2,seed=5",
    "problem=flexible-jobshop instance=gen:jobs=4,machines=3,ops=3,"
    "eligible=2,seed=5",
    "problem=lot-streaming instance=gen:jobs=3,stages=2x2,sublots=2,seed=5",
    "problem=fuzzy-flowshop instance=gen:jobs=5,machines=3,seed=5 spread=0.25",
    "problem=stochastic-jobshop instance=gen:jobs=4,machines=3,seed=5 "
    "scenarios=3 instance-seed=9",
    "problem=energy-flowshop instance=gen:jobs=5,machines=3,seed=5 "
    "w-makespan=0.5 w-energy=0.02 w-peak=1.5 instance-seed=4",
    "problem=dynamic-jobshop instance=gen:jobs=4,machines=3,seed=5 "
    "downtimes=2 instance-seed=3",
};

class BatchScalarEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchScalarEquivalence, ChunkedBatchesMatchScalarOnEveryBackend) {
  const ProblemPtr problem = ProblemSpec::parse(GetParam()).build();
  par::Rng rng(97);
  std::vector<Genome> genomes;
  for (int i = 0; i < 33; ++i) genomes.push_back(problem->random_genome(rng));

  std::vector<double> expect(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    expect[i] = problem->objective(genomes[i]);
  }

  for (EvalBackend backend :
       {EvalBackend::kSerial, EvalBackend::kThreadPool, EvalBackend::kOpenMp}) {
    for (int eval_batch : {1, 2, 7, 16, 33}) {
      SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)) +
                   " eval_batch=" + std::to_string(eval_batch));
      Evaluator evaluator(problem, backend, nullptr, eval_batch);
      EXPECT_EQ(evaluator.eval_batch(), eval_batch);
      std::vector<double> got(genomes.size(), -1.0);
      evaluator.evaluate(genomes, got);
      EXPECT_EQ(got, expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryProblems, BatchScalarEquivalence,
                         ::testing::ValuesIn(kProblemSpecs));

TEST(BatchScalarEquivalence, AutoResolvesToAPositiveBlockSize) {
  const ProblemPtr problem =
      ProblemSpec::parse("problem=flowshop instance=ta001").build();
  Evaluator evaluator(problem, EvalBackend::kSerial, nullptr,
                      /*eval_batch=*/0);
  EXPECT_GT(evaluator.eval_batch(), 0);
}

// --- eval_batch must be trace-invariant at the engine level ------------------

class EvalBatchTraceInvariance : public ::testing::TestWithParam<const char*> {
};

TEST_P(EvalBatchTraceInvariance, RunResultIdenticalForEveryChunkSize) {
  const std::string base = GetParam();
  const StopCondition stop = StopCondition::generations(5);
  const RunResult reference = Solver::build(RunSpec::parse(base)).run(stop);
  for (const char* token :
       {" eval_batch=auto", " eval_batch=1", " eval_batch=7",
        " eval_batch=33"}) {
    SCOPED_TRACE(token);
    const RunResult result =
        Solver::build(RunSpec::parse(base + token)).run(stop);
    EXPECT_EQ(result.best_objective, reference.best_objective);
    EXPECT_EQ(result.best.seq, reference.best.seq);
    EXPECT_EQ(result.history, reference.history);
    EXPECT_EQ(result.evaluations, reference.evaluations);
    EXPECT_EQ(result.generations, reference.generations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EvalBatchTraceInvariance,
    ::testing::Values(
        "problem=flowshop instance=gen:jobs=10,machines=4,seed=3 "
        "engine=simple pop=14 elites=2 seed=5",
        "problem=jobshop instance=ft06 decoder=active engine=island "
        "islands=3 pop=8 interval=2 seed=5 eval=pool "
        "eval_cache=lru:4096",
        "problem=flowshop encoding=random-key "
        "instance=gen:jobs=10,machines=4,seed=3 engine=cellular width=4 "
        "height=3 seed=5",
        "problem=fuzzy-flowshop instance=gen:jobs=5,machines=3,seed=5 "
        "spread=0.25 engine=master-slave pop=10 elites=2 seed=5",
        "problem=jobshop instance=ft06 engine=quantum islands=2 pop=6 "
        "seed=5"));

// --- eval_batch spec token ---------------------------------------------------

TEST(EvalBatchSpec, ParsesRendersAndRoundTrips) {
  SolverSpec spec = SolverSpec::parse("engine=simple eval_batch=16");
  ASSERT_TRUE(spec.eval_batch.has_value());
  EXPECT_EQ(*spec.eval_batch, 16);
  EXPECT_NE(spec.to_string().find("eval_batch=16"), std::string::npos);
  EXPECT_EQ(SolverSpec::parse(spec.to_string()), spec);

  SolverSpec auto_spec = SolverSpec::parse("eval_batch=auto");
  ASSERT_TRUE(auto_spec.eval_batch.has_value());
  EXPECT_EQ(*auto_spec.eval_batch, 0);
  EXPECT_NE(auto_spec.to_string().find("eval_batch=auto"), std::string::npos);
  EXPECT_EQ(SolverSpec::parse(auto_spec.to_string()), auto_spec);

  // Unset stays unset: no eval_batch token in the canonical form.
  EXPECT_EQ(SolverSpec::parse("engine=simple").to_string()
                .find("eval_batch"),
            std::string::npos);
}

TEST(EvalBatchSpec, RejectsNonPositiveAndMalformedValues) {
  EXPECT_THROW(SolverSpec::parse("eval_batch=0"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("eval_batch=-3"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("eval_batch=lots"), std::invalid_argument);
  EXPECT_THROW(SolverSpec::parse("eval_batch="), std::invalid_argument);
}

TEST(EvalBatchSpec, RoutesThroughRunSpecToTheSolverHalf) {
  const RunSpec run = RunSpec::parse(
      "problem=flowshop instance=ta001 engine=simple eval_batch=8");
  ASSERT_TRUE(run.solver.eval_batch.has_value());
  EXPECT_EQ(*run.solver.eval_batch, 8);
  EXPECT_EQ(RunSpec::parse(run.to_string()), run);
}

}  // namespace
}  // namespace psga::ga
