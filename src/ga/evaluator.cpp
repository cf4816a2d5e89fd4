#include "src/ga/evaluator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/par/omp_backend.h"

namespace psga::ga {

namespace {

/// Auto value of the eval_batch knob: a lane-width-friendly block — big
/// enough that the SoA decode kernels amortize their staging pass, small
/// enough to stay in L1/L2 for typical instances.
constexpr std::size_t kDefaultEvalBatch = 16;

std::size_t resolve_eval_batch(int eval_batch) {
  return eval_batch > 0 ? static_cast<std::size_t>(eval_batch)
                        : kDefaultEvalBatch;
}

/// Hands `genomes` to objective_batch in blocks of at most `block`.
/// Purity + per-genome independence make the split invisible in the
/// results; it only sets how many lanes the batched kernels advance at
/// once.
void chunked_objective_batch(const Problem& problem,
                             std::span<const Genome> genomes,
                             std::span<double> out, Workspace& workspace,
                             std::size_t block) {
  for (std::size_t begin = 0; begin < genomes.size(); begin += block) {
    const std::size_t len = std::min(block, genomes.size() - begin);
    problem.objective_batch(genomes.subspan(begin, len),
                            out.subspan(begin, len), workspace);
  }
}

/// Folds the evaluator's namespace salt into a cache key. splitmix64's
/// finalizer is a bijection on 64-bit words, so for a fixed genome key
/// the map salt -> key is injective: entries written under different
/// salts can never answer each other's lookups (see set_hash_salt).
/// Salt 0 keeps the raw EvalCache::key.
std::uint64_t salted_key(std::uint64_t key, std::uint64_t salt) {
  if (salt == 0) return key;
  std::uint64_t z = key ^ salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

// --- cache filter ------------------------------------------------------------

/// The cache misses of one batch: genome copies to decode, their keys,
/// where each value lands, and the decoded values. Entries [0, size) are
/// live; elements past `size` are kept, so a reused CacheMisses assigns
/// genomes into existing buffers instead of reallocating them.
struct CacheMisses {
  std::vector<std::uint64_t> batch_keys;  ///< per batch item (lookup input)
  std::vector<std::uint8_t> hit;          ///< per batch item (lookup output)
  std::vector<Genome> genomes;
  std::vector<std::uint64_t> keys;
  std::vector<double*> out;
  std::vector<double> values;
  std::size_t size = 0;

  std::span<const Genome> live_genomes() const { return {genomes.data(), size}; }
  std::span<double> live_values() { return {values.data(), size}; }
};

namespace {

/// The one cache-filter path (evaluate, evaluate_one): keys every
/// genome, resolves hits into `objectives` with one batched lookup and
/// gathers the misses into `misses`. Returns the miss count.
std::size_t filter_misses(EvalCache& cache, std::uint64_t salt,
                          std::span<const Genome> genomes,
                          std::span<double> objectives, CacheMisses& misses) {
  const std::size_t n = genomes.size();
  misses.batch_keys.resize(n);
  misses.hit.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    misses.batch_keys[i] = salted_key(EvalCache::key(genomes[i]), salt);
  }
  cache.lookup_many(misses.batch_keys, genomes, objectives, misses.hit);
  if (misses.genomes.size() < n) {
    misses.genomes.resize(n);
    misses.keys.resize(n);
    misses.out.resize(n);
    misses.values.resize(n);
  }
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (misses.hit[i] != 0) continue;
    misses.genomes[m] = genomes[i];
    misses.keys[m] = misses.batch_keys[i];
    misses.out[m] = &objectives[i];
    ++m;
  }
  misses.size = m;
  return m;
}

/// Writes the decoded miss values to their slots and publishes them with
/// one batched insert (`cache` may be null: slots only).
void publish_misses(EvalCache* cache, CacheMisses& misses) {
  if (cache != nullptr) {
    cache->insert_many({misses.keys.data(), misses.size},
                       misses.live_genomes(), misses.live_values());
  }
  for (std::size_t j = 0; j < misses.size; ++j) {
    *misses.out[j] = misses.values[j];
  }
}

}  // namespace

// --- evaluator ---------------------------------------------------------------

Evaluator::Evaluator(ProblemPtr problem, EvalBackend backend,
                     par::ThreadPool* pool, int eval_batch)
    : problem_(std::move(problem)),
      backend_(backend),
      // Only the thread-pool backend needs a pool; don't materialize the
      // process-wide default pool (and its worker threads) for serial or
      // OpenMP evaluators.
      pool_(backend == EvalBackend::kThreadPool && pool == nullptr
                ? &par::default_pool()
                : pool),
      batch_size_(resolve_eval_batch(eval_batch)),
      misses_(std::make_unique<CacheMisses>()) {
  int lanes = 1;
  switch (backend_) {
    case EvalBackend::kSerial:
      break;
    case EvalBackend::kThreadPool:
      lanes = pool_->thread_count();
      break;
    case EvalBackend::kOpenMp:
      lanes = par::omp_worker_count();
      break;
  }
  workspaces_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    workspaces_.push_back(problem_->make_workspace());
  }
}

Evaluator::~Evaluator() = default;
Evaluator::Evaluator(Evaluator&&) noexcept = default;
Evaluator& Evaluator::operator=(Evaluator&&) noexcept = default;

template <typename Decode>
void Evaluator::metered_decode(std::size_t count, Decode&& decode) {
  count_decodes(count);
  if (decode_ns_ == nullptr && tracer_ == nullptr) {
    decode();
    return;
  }
  const obs::Span span(tracer_.get(), "decode");
  const auto start = std::chrono::steady_clock::now();
  decode();
  record_batch(count, start);
}

void Evaluator::count_decodes(std::size_t count) {
  decode_calls_ += static_cast<long long>(count);
  if (decoded_genomes_ != nullptr) decoded_genomes_->add(count);
}

void Evaluator::record_batch(std::size_t count,
                             std::chrono::steady_clock::time_point start) {
  if (decode_ns_ == nullptr) return;
  decode_ns_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  batch_size_hist_->record(count);
}

void Evaluator::raw_evaluate(std::span<const Genome> genomes,
                             std::span<double> objectives) {
  const std::size_t n = genomes.size();
  switch (backend_) {
    case EvalBackend::kSerial:
      chunked_objective_batch(*problem_, genomes, objectives, workspace(0),
                              batch_size_);
      return;
    case EvalBackend::kThreadPool:
      pool_->parallel_lanes(
          n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
            chunked_objective_batch(*problem_,
                                    genomes.subspan(begin, end - begin),
                                    objectives.subspan(begin, end - begin),
                                    workspace(lane), batch_size_);
          });
      return;
    case EvalBackend::kOpenMp: {
#if defined(PSGA_HAVE_OPENMP)
      // num_threads() caps the team at the lane count fixed at
      // construction, so no two threads ever share a Workspace even after
      // a later omp_set_num_threads(). The runtime may still deliver
      // FEWER threads (OMP_DYNAMIC, thread limits), so chunk by the
      // actual team size observed inside the region — every genome is
      // covered either way. Chunks go through objective_batch, so batch
      // overrides apply on every backend.
      const int team = static_cast<int>(workspaces_.size());
#pragma omp parallel num_threads(team)
      {
        const std::size_t actual =
            static_cast<std::size_t>(omp_get_num_threads());
        const std::size_t lane =
            static_cast<std::size_t>(omp_get_thread_num());
        const std::size_t begin = lane * n / actual;
        const std::size_t end = (lane + 1) * n / actual;
        if (begin < end) {
          chunked_objective_batch(*problem_,
                                  genomes.subspan(begin, end - begin),
                                  objectives.subspan(begin, end - begin),
                                  workspace(lane), batch_size_);
        }
      }
#else
      chunked_objective_batch(*problem_, genomes, objectives, workspace(0),
                              batch_size_);
#endif
      return;
    }
  }
}

void Evaluator::evaluate(std::span<const Genome> genomes,
                         std::span<double> objectives) {
  evaluations_ += static_cast<long long>(genomes.size());
  if (cache_ == nullptr) {
    metered_decode(genomes.size(), [&] { raw_evaluate(genomes, objectives); });
    return;
  }
  // Filter hits on the calling thread, decode only the misses (still
  // batched through the backend), then publish the fresh values.
  const std::size_t missed =
      filter_misses(*cache_, hash_salt_, genomes, objectives, *misses_);
  if (missed == 0) return;
  metered_decode(missed, [&] {
    raw_evaluate(misses_->live_genomes(), misses_->live_values());
  });
  publish_misses(cache_.get(), *misses_);
}

double Evaluator::evaluate_one(const Genome& genome) {
  ++evaluations_;
  if (cache_ == nullptr) {
    count_decodes(1);
    return problem_->objective(genome, workspace(0));
  }
  double objective = 0.0;
  if (filter_misses(*cache_, hash_salt_, {&genome, 1}, {&objective, 1},
                    *misses_) == 0) {
    return objective;
  }
  count_decodes(1);
  misses_->values[0] = problem_->objective(genome, workspace(0));
  publish_misses(cache_.get(), *misses_);
  return objective;
}

void Evaluator::set_cache(EvalCachePtr cache) { cache_ = std::move(cache); }

void Evaluator::set_hash_salt(std::uint64_t salt) { hash_salt_ = salt; }

void Evaluator::set_obs(obs::RegistryPtr metrics,
                        std::shared_ptr<obs::Tracer> tracer) {
  metrics_ = std::move(metrics);
  tracer_ = std::move(tracer);
  if (metrics_ != nullptr) {
    decode_ns_ = &metrics_->histogram("eval.decode_ns");
    batch_size_hist_ = &metrics_->histogram("eval.batch_size");
    decoded_genomes_ = &metrics_->counter("eval.decoded_genomes");
  } else {
    decode_ns_ = nullptr;
    batch_size_hist_ = nullptr;
    decoded_genomes_ = nullptr;
  }
}

}  // namespace psga::ga
