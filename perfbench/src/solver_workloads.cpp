// The three solver workloads: the survey's sequential baseline with
// breeding as the largest layer (flowshop-breed), its master-slave model
// (jobshop-active-pool) and its coarse-grained island model with a shared
// evaluation cache (island-cache).
//
// Untraced runs repeat "set up, run G generations, check" with per-run
// seeds derived from --seed until --seconds elapse. Engine::step latency
// is the wall time between two consecutive RunObserver::on_generation
// callbacks — the step plus the run loop's per-generation bookkeeping.
//
// Traced runs pair each untraced run with a traced run of the same seed.
// Every few generations the traced run's observer replays the workload's
// own operators, evaluator, decoder and an EvalCache on the engine's
// current population (read through individual()/objective_of(), with a
// separate RNG), timing each call into the library from outside. The
// per-layer ledger combines those call costs with the counters of the
// untraced run (RunResult::metrics and RunResult::cache).
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "src/ga/evaluator.h"
#include "src/ga/problems.h"
#include "src/ga/simple_ga.h"
#include "src/ga/solver.h"
#include "src/sched/flow_shop.h"
#include "src/sched/schedule.h"

namespace perfbench {
namespace {

namespace ga = psga::ga;
namespace par = psga::par;
namespace sched = psga::sched;

struct SolverWorkload {
  const char* name;
  const char* spec;  ///< RunSpec tokens; the run seed is appended
  int generations;   ///< per solver run
  bool parallel;     ///< built on a lanes()-lane pool (else a 1-lane pool)
};

constexpr SolverWorkload kWorkloads[] = {
    {"flowshop-breed",
     "problem=flowshop instance=ta001 engine=simple pop=100 eval=serial",
     2000, false},
    {"jobshop-active-pool",
     "problem=jobshop instance=ft10 decoder=active engine=simple pop=100 "
     "eval=pool",
     200, true},
    {"island-cache",
     "problem=jobshop instance=ft10 decoder=semi-active engine=island "
     "islands=4 pop=50 topology=ring interval=5 eval_cache=lru:65536",
     500, true},
};

/// Replays per traced run (spread evenly over its generations).
constexpr int kReplaysPerRun = 40;

/// Everything one solver run needs, built inside the timed set-up.
/// Member order matters: the solver (whose engine points at the pool) is
/// destroyed before the pool.
struct Built {
  ga::RunSpec spec;
  ga::ProblemPtr problem;
  std::unique_ptr<par::ThreadPool> pool;
  std::optional<ga::Solver> solver;
};

Built build(const SolverWorkload& workload, std::uint64_t seed) {
  Built built;
  built.spec = ga::RunSpec::parse(std::string(workload.spec) +
                                  " seed=" + std::to_string(seed));
  built.problem = built.spec.problem.build();
  built.pool =
      std::make_unique<par::ThreadPool>(workload.parallel ? lanes() : 1);
  built.solver.emplace(
      ga::Solver::build(built.spec.solver, built.problem, built.pool.get()));
  return built;
}

/// Times each Engine::step from outside (the gap between consecutive
/// on_generation callbacks) and runs an optional hook after selected
/// steps; the hook's own time is excluded from the next gap.
class StepTimer final : public ga::RunObserver {
 public:
  using Hook = std::function<void(const ga::Engine&, int generation)>;

  StepTimer(obs::Tracer* tracer, int hook_every, Hook hook)
      : tracer_(tracer), hook_every_(hook_every), hook_(std::move(hook)) {}

  bool on_generation(const ga::Engine& engine,
                     const ga::GenerationEvent& event) override {
    const Clock::time_point now = Clock::now();
    if (event.generation > 0) {
      const std::uint64_t ns = ns_between(last_, now);
      step_ns.push_back(static_cast<double>(ns));
      record_ending_now(tracer_, "engine.step", ns);
      if (hook_ && event.generation % hook_every_ == 0) {
        hook_(engine, event.generation);
      }
    }
    last_ = Clock::now();
    return true;
  }

  std::vector<double> step_ns;  ///< one sample per generation 1..G

 private:
  obs::Tracer* tracer_;
  int hook_every_;
  Hook hook_;
  Clock::time_point last_ = Clock::now();
};

std::uint64_t counter_of(const ga::RunResult& result, const char* name) {
  if (!result.metrics) return 0;
  const std::uint64_t* value = result.metrics->counter(name);
  return value != nullptr ? *value : 0;
}

/// The per-run correctness checks and metric identities.
void check_run(const Built& built, const ga::RunResult& result,
               const std::string& tag, Outcome& out) {
  const ga::Problem& problem = *built.problem;
  out.check(problem.objective(result.best) == result.best_objective,
            tag + ": best genome re-evaluated != RunResult::best_objective");

  std::optional<sched::Schedule> schedule;
  std::optional<sched::ValidationSpec> rules;
  if (const auto* flow = dynamic_cast<const ga::FlowShopProblem*>(&problem)) {
    schedule = sched::flow_shop_schedule(flow->instance(), result.best.seq);
    rules = flow->instance().validation_spec();
  } else if (const auto* job =
                 dynamic_cast<const ga::JobShopProblem*>(&problem)) {
    schedule = job->decode(result.best);
    rules = job->instance().validation_spec();
  }
  const bool valid = schedule && !sched::validate(*schedule, *rules) &&
                     static_cast<double>(schedule->makespan()) ==
                         result.best_objective;
  out.check(valid, tag + ": best schedule fails sched::validate or its "
                         "makespan differs from the objective");

  const long long hits = result.cache ? result.cache->hits : 0;
  const auto decoded =
      static_cast<long long>(counter_of(result, "eval.decoded_genomes"));
  out.check(decoded + hits == result.evaluations,
            tag + ": eval.decoded_genomes + eval.cache.hits (" +
                std::to_string(decoded) + " + " + std::to_string(hits) +
                ") != evaluations (" + std::to_string(result.evaluations) +
                ")");
}

struct RunRecord {
  ga::RunResult result;
  std::vector<double> step_ns;
  double setup_s = 0.0;
};

/// One set-up + run + checks. `tracer`/`hook` are set on traced runs.
std::optional<RunRecord> solve(const SolverWorkload& workload,
                               std::uint64_t seed, Outcome& out,
                               obs::Tracer* tracer = nullptr,
                               int hook_every = 1,
                               const std::function<void(Built&)>& on_built = {},
                               StepTimer::Hook hook = {}) {
  const std::string tag =
      std::string(workload.name) + " seed=" + std::to_string(seed) +
      (tracer != nullptr ? " (traced)" : "");
  try {
    RunRecord record;
    const Clock::time_point start = Clock::now();
    Built built = [&] {
      const obs::Span span(tracer, "solver.setup");
      return build(workload, seed);
    }();
    record.setup_s = seconds_since(start);
    if (on_built) on_built(built);
    StepTimer timer(tracer, hook_every, std::move(hook));
    built.solver->set_observer(&timer);
    {
      const obs::Span span(tracer, "solver.run");
      record.result =
          built.solver->run(ga::StopCondition::generations(workload.generations));
    }
    built.solver->set_observer(nullptr);
    out.check(record.result.generations == workload.generations &&
                  record.result.seconds > 0.0 && record.result.evaluations > 0,
              tag + ": run did not complete its generations");
    check_run(built, record.result, tag, out);
    record.step_ns = std::move(timer.step_ns);
    return record;
  } catch (const std::exception& e) {
    out.error(tag + ": " + e.what());
    return std::nullopt;
  }
}

double evals_per_s(const ga::RunResult& result) {
  return static_cast<double>(result.evaluations) / result.seconds;
}

// --- traced replay -----------------------------------------------------------

template <class F>
double timed_ns(obs::Tracer* tracer, const char* name, F&& body) {
  const obs::Span span(tracer, name);
  const Clock::time_point start = Clock::now();
  body();
  return static_cast<double>(ns_between(start, Clock::now()));
}

/// Per-call costs gathered by every Replay of one benchmark run.
struct ReplaySamples {
  std::vector<double> select_ns;   ///< per parent picked
  std::vector<double> cross_ns;    ///< per crossover call
  std::vector<double> mutate_ns;   ///< per mutation call
  std::vector<double> select_gen_ns;  ///< one generation's pick_many, summed over subpopulations
  std::vector<double> evaluate_ns;    ///< per genome, workload backend
  std::vector<double> decode_ns;      ///< per genome, Problem::objective
  std::vector<double> lookup_ns;      ///< per genome: genome_hash + lookup
  std::vector<double> insert_ns;      ///< per genome
  std::vector<double> serial_ns;      ///< whole-population serial evaluate
  std::vector<double> lanes2_ns;      ///< whole-population 2-lane evaluate
  std::vector<double> lanes4_ns;      ///< whole-population 4-lane evaluate
  int pairs = 0;    ///< parent pairs bred per subpopulation and generation
  int islands = 1;  ///< subpopulations
};

/// Replays single layers on a traced run's population, after a step and
/// outside its timing. One instance per traced run.
class Replay {
 public:
  Replay(const Built& built, par::ThreadPool* pool2, par::ThreadPool* pool4,
         obs::Tracer* tracer, std::uint64_t seed, ReplaySamples& samples,
         Outcome& out)
      : problem_(built.problem),
        ops_(ga::default_operators(*built.problem)),
        islands_(built.spec.solver.islands.value_or(1)),
        workload_eval_(built.problem,
                       built.spec.solver.eval.value_or(ga::EvalBackend::kSerial),
                       built.pool.get()),
        serial_(built.problem, ga::EvalBackend::kSerial),
        workspace_(built.problem->make_workspace()),
        cache_config_(built.spec.solver.eval_cache.value_or(
            ga::EvalCacheConfig{ga::EvalCacheMode::kLru})),
        tracer_(tracer),
        rng_(seed ^ 0x7265706c61790000ULL),
        samples_(samples),
        out_(out) {
    if (pool2 != nullptr) {
      lanes2_.emplace(built.problem, ga::EvalBackend::kThreadPool, pool2);
    }
    if (pool4 != nullptr) {
      lanes4_.emplace(built.problem, ga::EvalBackend::kThreadPool, pool4);
    }
  }

  void operator()(const ga::Engine& engine) {
    const obs::Span span(tracer_, "replay");
    const int n = engine.population_size();
    population_.clear();
    objectives_.clear();
    for (int i = 0; i < n; ++i) {
      population_.push_back(engine.individual(i));
      objectives_.push_back(engine.objective_of(i));
    }
    breed(n);
    evaluate(n);
    cache_ops(n);
  }

 private:
  /// Selection, crossover and mutation of one generation per
  /// subpopulation, with the engine's default rates and elitism.
  void breed(int n) {
    const ga::GenomeTraits& traits = problem_->traits();
    const int sub = n / islands_;
    const int pairs = (sub - ga::GaConfig{}.elites + 1) / 2;
    samples_.pairs = pairs;
    samples_.islands = islands_;
    if (children_.size() != static_cast<std::size_t>(2 * pairs)) {
      children_.assign(static_cast<std::size_t>(2 * pairs), population_[0]);
    }
    double select_total = 0.0;
    for (int island = 0; island < islands_; ++island) {
      const auto first = static_cast<std::size_t>(island * sub);
      std::vector<double> fitness(static_cast<std::size_t>(sub));
      for (std::size_t i = 0; i < fitness.size(); ++i) {
        fitness[i] = 1.0 / std::max(objectives_[first + i], 1e-12);
      }
      std::vector<int> parents;
      const double select = timed_ns(tracer_, "ga.select", [&] {
        parents = ops_.selection->pick_many(fitness, 2 * pairs, rng_);
      });
      select_total += select;
      samples_.select_ns.push_back(select / (2.0 * pairs));
      const double cross = timed_ns(tracer_, "ga.crossover", [&] {
        for (int p = 0; p < pairs; ++p) {
          const auto a = first + static_cast<std::size_t>(parents[2 * p]);
          const auto b = first + static_cast<std::size_t>(parents[2 * p + 1]);
          ops_.crossover->cross(population_[a], population_[b], traits,
                                children_[2 * p], children_[2 * p + 1], rng_);
        }
      });
      samples_.cross_ns.push_back(cross / pairs);
      const double mutate = timed_ns(tracer_, "ga.mutate", [&] {
        for (ga::Genome& child : children_) {
          ops_.mutation->mutate(child, traits, rng_);
        }
      });
      samples_.mutate_ns.push_back(mutate / (2.0 * pairs));
    }
    samples_.select_gen_ns.push_back(select_total);
  }

  void evaluate(int n) {
    std::vector<double> values(static_cast<std::size_t>(n));
    const double per = static_cast<double>(n);
    samples_.serial_ns.push_back(timed_ns(tracer_, "par.evaluate_1", [&] {
      serial_.evaluate(population_, values);
    }));
    samples_.evaluate_ns.push_back(
        timed_ns(tracer_, "ga.evaluate",
                 [&] { workload_eval_.evaluate(population_, values); }) /
        per);
    out_.check(values == objectives_,
               "replayed Evaluator::evaluate disagrees with objective_of");
    if (lanes2_) {
      samples_.lanes2_ns.push_back(timed_ns(tracer_, "par.evaluate_2", [&] {
        lanes2_->evaluate(population_, values);
      }));
    }
    if (lanes4_) {
      samples_.lanes4_ns.push_back(timed_ns(tracer_, "par.evaluate_4", [&] {
        lanes4_->evaluate(population_, values);
      }));
    }
    samples_.decode_ns.push_back(
        timed_ns(tracer_, "sched.decode",
                 [&] {
                   for (int i = 0; i < n; ++i) {
                     values[static_cast<std::size_t>(i)] = problem_->objective(
                         population_[static_cast<std::size_t>(i)], *workspace_);
                   }
                 }) /
        per);
    out_.check(values == objectives_,
               "replayed Problem::objective disagrees with objective_of");
  }

  /// Inserts the population into a fresh cache of the workload's
  /// configuration, then looks every genome up again (all hits).
  void cache_ops(int n) {
    ga::EvalCache cache(cache_config_);
    std::vector<std::uint64_t> hashes(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      hashes[static_cast<std::size_t>(i)] =
          ga::genome_hash(population_[static_cast<std::size_t>(i)]);
    }
    const double per = static_cast<double>(n);
    samples_.insert_ns.push_back(
        timed_ns(tracer_, "cache.insert",
                 [&] {
                   for (std::size_t i = 0; i < hashes.size(); ++i) {
                     cache.insert(hashes[i], population_[i], objectives_[i]);
                   }
                 }) /
        per);
    long long hits = 0;
    samples_.lookup_ns.push_back(
        timed_ns(tracer_, "cache.lookup",
                 [&] {
                   for (const ga::Genome& genome : population_) {
                     hits += cache.lookup(ga::genome_hash(genome), genome)
                                 .has_value();
                   }
                 }) /
        per);
    out_.check(hits == n, "replayed EvalCache lookups missed after insert");
  }

  ga::ProblemPtr problem_;
  ga::OperatorConfig ops_;
  int islands_;
  ga::Evaluator workload_eval_;
  ga::Evaluator serial_;
  std::optional<ga::Evaluator> lanes2_;
  std::optional<ga::Evaluator> lanes4_;
  std::unique_ptr<ga::Workspace> workspace_;
  ga::EvalCacheConfig cache_config_;
  obs::Tracer* tracer_;
  par::Rng rng_;
  ReplaySamples& samples_;
  Outcome& out_;
  std::vector<ga::Genome> population_;
  std::vector<double> objectives_;
  std::vector<ga::Genome> children_;
};

/// Operations a decode of one genome schedules (computed, not measured).
double operations_per_genome(const ga::Problem& problem) {
  if (const auto* flow = dynamic_cast<const ga::FlowShopProblem*>(&problem)) {
    return static_cast<double>(flow->instance().jobs) *
           flow->instance().machines;
  }
  if (const auto* job = dynamic_cast<const ga::JobShopProblem*>(&problem)) {
    return job->instance().total_ops();
  }
  return problem.traits().seq_length;
}

// --- the two modes -----------------------------------------------------------

Outcome untraced(const SolverWorkload& workload, const Options& options) {
  Outcome out;
  const Clock::time_point start = Clock::now();
  std::vector<RunRecord> records;
  std::vector<std::uint64_t> steal;
  std::uint64_t index = 0;
  do {
    const CpuPin pin(workload.parallel ? -1 : static_cast<long long>(index));
    const std::uint64_t seed = derive_seed(options.seed, index++);
    const std::uint64_t stolen = stolen_jiffies();
    std::optional<RunRecord> record = solve(workload, seed, out);
    if (!record) continue;
    records.push_back(std::move(*record));
    steal.push_back(stolen_jiffies() - stolen);
  } while (seconds_since(start) < options.seconds);

  std::vector<double> setup_s;
  std::vector<double> step_us;
  double evaluations = 0.0;
  double generations = 0.0;
  const std::vector<std::size_t> used = least_stolen(steal);
  for (std::size_t i : used) {
    const RunRecord& record = records[i];
    setup_s.push_back(record.setup_s);
    evaluations += static_cast<double>(record.result.evaluations);
    generations += record.result.generations;
    for (double ns : record.step_ns) step_us.push_back(ns / 1e3);
  }
  const double step_p50 = quantile(step_us, 0.50);
  out.set("setup_s", median(setup_s));
  // The evaluations of a generation over the median step, not a ratio of
  // sums: a sum takes in every step a burst of hypervisor steal slowed,
  // the median only moves once more than half of the steps are slowed.
  out.set("evals_per_s", evaluations / generations / (step_p50 * 1e-6));
  out.set("wait_us_p50", step_p50);
  out.note("solver runs: " + std::to_string(records.size()) + " x " +
           std::to_string(workload.generations) + " generations, " +
           std::to_string(used.size()) + " used (" +
           std::to_string(records.size() -
                          static_cast<std::size_t>(std::count(
                              steal.begin(), steal.end(), std::uint64_t{0}))) +
           " overlapped hypervisor steal); " + std::to_string(step_us.size()) +
           " Engine::step samples");
  return out;
}

Outcome traced(const SolverWorkload& workload, const Options& options) {
  Outcome out;
  obs::Tracer tracer(1 << 18);
  const int hook_every = std::max(1, workload.generations / kReplaysPerRun);
  // Pools for the scaling series; a width above nproc is skipped, and a
  // workload already built on a 4-lane pool lends it to the replay.
  const bool scale2 = nproc() >= 2;
  const bool scale4 = nproc() >= 4;
  std::unique_ptr<par::ThreadPool> pool2;
  std::unique_ptr<par::ThreadPool> pool4;
  if (scale2) pool2 = std::make_unique<par::ThreadPool>(2);
  if (scale4 && !(workload.parallel && lanes() == 4)) {
    pool4 = std::make_unique<par::ThreadPool>(4);
  }

  ReplaySamples samples;
  std::vector<double> step_ns;        // untraced twins, all runs
  std::vector<double> migration_ns;   // ... on migration generations
  std::vector<double> other_ns;       // ... on the others
  std::vector<double> overhead;
  long long generations = 0;
  long long decoded = 0;
  long long migrants = 0;
  ga::EvalCacheStats cache;
  double ops = 0.0;
  int interval = 0;

  const Clock::time_point start = Clock::now();
  std::uint64_t index = 0;
  do {
    const CpuPin pin(workload.parallel ? -1 : static_cast<long long>(index));
    const std::uint64_t seed = derive_seed(options.seed, index++);
    std::optional<RunRecord> plain = solve(workload, seed, out);
    std::optional<Replay> replay;
    std::optional<RunRecord> traced_run = solve(
        workload, seed, out, &tracer, hook_every,
        [&](Built& built) {
          interval = built.spec.solver.interval.value_or(0);
          ops = operations_per_genome(*built.problem);
          par::ThreadPool* four =
              pool4 ? pool4.get() : (scale4 ? built.pool.get() : nullptr);
          replay.emplace(built, pool2.get(), four, &tracer,
                         derive_seed(seed, 0xfeed), samples, out);
        },
        [&](const ga::Engine& engine, int) { (*replay)(engine); });
    if (!plain || !traced_run) continue;

    out.check(ga::genome_hash(plain->result.best) ==
                  ga::genome_hash(traced_run->result.best),
              std::string(workload.name) + " seed=" + std::to_string(seed) +
                  ": traced and untraced runs end with different best genomes");
    overhead.push_back(evals_per_s(plain->result) /
                       evals_per_s(traced_run->result));
    const ga::RunResult& result = plain->result;
    generations += result.generations;
    decoded += static_cast<long long>(counter_of(result, "eval.decoded_genomes"));
    migrants += static_cast<long long>(counter_of(result, "engine.migrants"));
    if (result.cache) {
      cache.hits += result.cache->hits;
      cache.misses += result.cache->misses;
      cache.inserts += result.cache->inserts;
      cache.evictions += result.cache->evictions;
    }
    for (std::size_t g = 0; g < plain->step_ns.size(); ++g) {
      const double ns = plain->step_ns[g];
      step_ns.push_back(ns);
      const bool migration = interval > 0 && (g + 1) % interval == 0;
      (migration ? migration_ns : other_ns).push_back(ns);
    }
  } while (seconds_since(start) < options.seconds);

  if (generations == 0) {
    out.error(std::string(workload.name) + ": no traced run completed");
    return out;
  }

  // --- the ledger ---
  // Islands breed and evaluate concurrently, so their summed work is
  // spread over min(islands, lanes) lanes of the step's wall time.
  const double spread =
      static_cast<double>(std::min(samples.islands, lanes()));
  // The base is the median step: the parts are medians of replayed call
  // costs, and a median keeps a preempted step out of the base too.
  const double step = median(step_ns);
  const double gens = static_cast<double>(generations);
  const ga::OperatorConfig rates;
  const double select_ns = median(samples.select_ns);
  const double cross_ns = median(samples.cross_ns);
  const double mutate_ns = median(samples.mutate_ns);
  // One pick_many per subpopulation, a crossover per pair with the
  // crossover rate, a mutation per child with the mutation rate.
  const double breed_gen =
      (median(samples.select_gen_ns) +
       samples.islands * samples.pairs *
           (rates.crossover_rate * cross_ns +
            2.0 * rates.mutation_rate * mutate_ns)) /
      spread;
  const double evaluate_ns = median(samples.evaluate_ns);
  const double lookup_ns = median(samples.lookup_ns);
  const double insert_ns = median(samples.insert_ns);
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  // Without a cache every evaluation decodes on the workload backend;
  // with one, each evaluation is a lookup, each miss a decode and an
  // insert.
  const double eval_gen =
      (static_cast<double>(decoded) * evaluate_ns +
       lookups * lookup_ns + static_cast<double>(cache.inserts) * insert_ns) /
      gens / spread;

  out.set("ga.select_ns", select_ns);
  out.set("ga.cross_ns", cross_ns);
  out.set("ga.mutate_ns", mutate_ns);
  out.set("ga.breed_share", breed_gen / step);
  out.set("ga.evaluate_ns_per_genome", evaluate_ns);
  out.set("ga.eval_share", eval_gen / step);
  const double decode_ns = median(samples.decode_ns);
  out.set("sched.decode_ns_per_genome", decode_ns);
  out.set("sched.ops_per_s", ops / (decode_ns * 1e-9));
  const double serial = median(samples.serial_ns);
  if (scale2) {
    out.set("par.pool_eff_2", serial / (2.0 * median(samples.lanes2_ns)));
  } else {
    out.skip("par.pool_eff_2");
  }
  if (scale4) {
    out.set("par.pool_eff_4", serial / (4.0 * median(samples.lanes4_ns)));
  } else {
    out.skip("par.pool_eff_4");
  }
  out.set("par.lanes", workload.parallel ? lanes() : 1);
  out.set("par.nproc", nproc());
  out.set("cache.hit_ratio",
          lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  out.set("cache.evictions_per_insert",
          cache.inserts > 0 ? static_cast<double>(cache.evictions) /
                                  static_cast<double>(cache.inserts)
                            : 0.0);
  // Decode time the hits avoided, as a share of the wall time the run
  // would have taken without them.
  const double saved = static_cast<double>(cache.hits) * evaluate_ns / spread;
  out.set("cache.decode_saved_share", saved / (mean(step_ns) * gens + saved));
  out.set("cache.lookup_ns", lookup_ns);
  out.set("cache.insert_ns", insert_ns);
  if (interval > 0) {
    out.set("ga.migrants_per_epoch",
            static_cast<double>(migrants) / (gens / interval));
    out.set("ga.migration_step_excess_us",
            (mean(migration_ns) - mean(other_ns)) / 1e3);
  }
  out.set("ledger.step_us", step / 1e3);
  out.set("tail.wait_us_p90", quantile(step_ns, 0.90) / 1e3);
  out.set("ledger.breed_us", breed_gen / 1e3);
  out.set("ledger.evaluate_us", eval_gen / 1e3);
  out.set("ledger.unattributed_share", 1.0 - (breed_gen + eval_gen) / step);
  out.set("trace.overhead", median(overhead));

  out.note("traced pairs: " + std::to_string(overhead.size()) + " x " +
           std::to_string(workload.generations) + " generations, replay every " +
           std::to_string(hook_every) + " generations; lanes=" +
           std::to_string(workload.parallel ? lanes() : 1) +
           " nproc=" + std::to_string(nproc()));
  if (!scale4) out.note("par.pool_eff_4 skipped: nproc < 4");
  if (!scale2) out.note("par.pool_eff_2 skipped: nproc < 2");
  write_trace(options, tracer, out);
  return out;
}

}  // namespace

bool is_solver_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const SolverWorkload& w) { return name == w.name; });
}

Outcome run_solver_workload(const Options& options) {
  for (const SolverWorkload& workload : kWorkloads) {
    if (options.workload == workload.name) {
      return options.trace ? traced(workload, options)
                           : untraced(workload, options);
    }
  }
  Outcome out;
  out.error("unknown solver workload " + options.workload);
  return out;
}

}  // namespace perfbench
