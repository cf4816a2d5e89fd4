#include "src/ga/evaluator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
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

/// The one cache-filter path (evaluate, submit, evaluate_one): keys every
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

// --- async pipeline ----------------------------------------------------------
//
// One coordinator thread per pipelined Evaluator. submit() enqueues a
// batch and returns to the engine thread, which keeps breeding while the
// coordinator decodes — either fanning the batch out on the thread pool
// (single-population engines, where the pool is otherwise idle between
// fences) or on the coordinator alone (inner engines of islands/ranks,
// whose outer level owns the pool). The pipeline is self-contained — own
// problem handle, workspaces, cache pointer and decode counter — so the
// owning Evaluator can be moved (vectors of engines) while jobs run.
class AsyncPipeline {
 public:
  struct Job {
    // Direct mode: evaluate genomes[i] into out[i] (no cache attached).
    std::span<const Genome> genomes;
    std::span<double> out;
    // Filtered mode: cache misses compacted on the engine thread; each
    // result lands in *misses.out[j] and is inserted into the cache.
    bool filtered = false;
    CacheMisses misses;
  };

  AsyncPipeline(ProblemPtr problem, par::ThreadPool* pool, bool use_pool,
                std::size_t batch_size)
      : problem_(std::move(problem)),
        pool_(pool),
        use_pool_(use_pool),
        batch_size_(batch_size) {
    const int lanes = use_pool_ ? pool_->thread_count() : 1;
    workspaces_.reserve(static_cast<std::size_t>(lanes));
    for (int i = 0; i < lanes; ++i) {
      workspaces_.push_back(problem_->make_workspace());
    }
    thread_ = std::thread([this] { loop(); });
  }

  ~AsyncPipeline() {
    fence();
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_one();
    thread_.join();
  }

  void submit(Job job) {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(job));
    work_cv_.notify_one();
  }

  /// A processed job to refill (or a fresh one): its miss buffers keep
  /// their genome elements, so steady-state submits do not reallocate.
  Job recycled_job() {
    std::lock_guard lock(mutex_);
    if (spare_.empty()) return Job{};
    Job job = std::move(spare_.back());
    spare_.pop_back();
    return job;
  }

  /// Returns an unsubmitted job from recycled_job() to the spares.
  void give_back(Job job) {
    std::lock_guard lock(mutex_);
    spare_.push_back(std::move(job));
  }

  void fence() {
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }

  /// Only call through a fence (the coordinator reads it while busy).
  void set_cache(EvalCachePtr cache) {
    std::lock_guard lock(mutex_);
    cache_ = std::move(cache);
  }

  /// Same fence rule as set_cache. Raw handles — the owning Evaluator
  /// keeps the registry/tracer alive for the pipeline's lifetime.
  void set_obs(obs::Histogram* decode_ns, obs::Histogram* batch_size,
               obs::Counter* decoded_genomes, obs::Tracer* tracer) {
    std::lock_guard lock(mutex_);
    decode_ns_ = decode_ns;
    batch_size_hist_ = batch_size;
    decoded_genomes_ = decoded_genomes;
    tracer_ = tracer;
  }

  long long decode_calls() const noexcept {
    return decode_calls_.load(std::memory_order_relaxed);
  }

  int width() const noexcept { return static_cast<int>(workspaces_.size()); }

 private:
  void loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock lock(mutex_);
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and nothing left
        job = std::move(queue_.front());
        queue_.pop_front();
        busy_ = true;
      }
      process(job);
      {
        std::lock_guard lock(mutex_);
        busy_ = false;
        spare_.push_back(std::move(job));
      }
      idle_cv_.notify_all();
    }
  }

  void process(Job& job) {
    if (!job.filtered) {
      run_batch(job.genomes, job.out);
      return;
    }
    run_batch(job.misses.live_genomes(), job.misses.live_values());
    publish_misses(cache_.get(), job.misses);
  }

  void run_batch(std::span<const Genome> genomes, std::span<double> out) {
    decode_calls_.fetch_add(static_cast<long long>(genomes.size()),
                            std::memory_order_relaxed);
    if (decode_ns_ != nullptr || tracer_ != nullptr) {
      const obs::Span span(tracer_, "decode");
      const auto start = std::chrono::steady_clock::now();
      run_batch_impl(genomes, out);
      if (decode_ns_ != nullptr) {
        decode_ns_->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
        batch_size_hist_->record(genomes.size());
        decoded_genomes_->add(genomes.size());
      }
      return;
    }
    run_batch_impl(genomes, out);
  }

  void run_batch_impl(std::span<const Genome> genomes, std::span<double> out) {
    if (!use_pool_) {
      chunked_objective_batch(*problem_, genomes, out, *workspaces_[0],
                              batch_size_);
      return;
    }
    pool_->parallel_lanes(
        genomes.size(),
        [&](std::size_t lane, std::size_t begin, std::size_t end) {
          chunked_objective_batch(*problem_,
                                  genomes.subspan(begin, end - begin),
                                  out.subspan(begin, end - begin),
                                  *workspaces_[lane], batch_size_);
        });
  }

  ProblemPtr problem_;
  par::ThreadPool* pool_;
  bool use_pool_;
  std::size_t batch_size_;
  std::vector<std::unique_ptr<Workspace>> workspaces_;
  EvalCachePtr cache_;
  std::atomic<long long> decode_calls_{0};
  obs::Histogram* decode_ns_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* decoded_genomes_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  std::vector<Job> spare_;  ///< processed jobs, reused by recycled_job()
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;
};

// --- evaluator ---------------------------------------------------------------

Evaluator::Evaluator(ProblemPtr problem, EvalBackend backend,
                     par::ThreadPool* pool, bool async_coordinator_only,
                     int eval_batch)
    : problem_(std::move(problem)),
      backend_(backend),
      // Only the pool-carried backends need a pool; don't materialize the
      // process-wide default pool (and its worker threads) for serial or
      // OpenMP evaluators.
      pool_((backend == EvalBackend::kThreadPool ||
             (backend == EvalBackend::kAsyncPool && !async_coordinator_only)) &&
                    pool == nullptr
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
    case EvalBackend::kAsyncPool:
      // Lane 0 here serves evaluate_one; batch workspaces live inside the
      // pipeline, which owns the threads that use them.
      pipeline_ = std::make_unique<AsyncPipeline>(
          problem_, pool_, !async_coordinator_only, batch_size_);
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

void Evaluator::raw_evaluate(std::span<const Genome> genomes,
                             std::span<double> objectives) {
  if (decode_ns_ == nullptr && tracer_ == nullptr) {
    raw_evaluate_impl(genomes, objectives);
    return;
  }
  const obs::Span span(tracer_.get(), "decode");
  const auto start = std::chrono::steady_clock::now();
  raw_evaluate_impl(genomes, objectives);
  if (decode_ns_ != nullptr) {
    decode_ns_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    batch_size_hist_->record(genomes.size());
    decoded_genomes_->add(genomes.size());
  }
}

void Evaluator::raw_evaluate_impl(std::span<const Genome> genomes,
                                  std::span<double> objectives) {
  const std::size_t n = genomes.size();
  switch (backend_) {
    case EvalBackend::kSerial:
    case EvalBackend::kAsyncPool:  // unreachable: async goes via submit()
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
  if (backend_ == EvalBackend::kAsyncPool) {
    submit(genomes, objectives);
    fence();
    return;
  }
  const std::size_t n = genomes.size();
  evaluations_ += static_cast<long long>(n);
  if (cache_ == nullptr) {
    raw_evaluate(genomes, objectives);
    decode_calls_ += static_cast<long long>(n);
    return;
  }
  // Filter hits on the calling thread, decode only the misses (still
  // batched through the backend), then publish the fresh values.
  const std::size_t missed =
      filter_misses(*cache_, hash_salt_, genomes, objectives, *misses_);
  if (missed == 0) return;
  raw_evaluate(misses_->live_genomes(), misses_->live_values());
  decode_calls_ += static_cast<long long>(missed);
  publish_misses(cache_.get(), *misses_);
}

void Evaluator::submit(std::span<const Genome> genomes,
                       std::span<double> objectives) {
  if (backend_ != EvalBackend::kAsyncPool) {
    evaluate(genomes, objectives);
    return;
  }
  const std::size_t n = genomes.size();
  evaluations_ += static_cast<long long>(n);
  if (n == 0) return;
  const obs::Span span(tracer_.get(), "submit");
  if (submit_to_fence_ns_ != nullptr && !inflight_timed_) {
    // First submit of this generation: the fence closes the interval.
    inflight_since_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    inflight_timed_ = true;
  }
  AsyncPipeline::Job job = pipeline_->recycled_job();
  job.filtered = cache_ != nullptr;
  if (!job.filtered) {
    job.genomes = genomes;
    job.out = objectives;
    pipeline_->submit(std::move(job));
    return;
  }
  // Hits resolve right here on the engine thread; only misses travel.
  std::size_t missed = 0;
  {
    const obs::Span filter_span(tracer_.get(), "cache_filter");
    missed = filter_misses(*cache_, hash_salt_, genomes, objectives,
                           job.misses);
  }
  if (missed == 0) {
    pipeline_->give_back(std::move(job));
    return;
  }
  pipeline_->submit(std::move(job));
}

void Evaluator::fence() {
  if (pipeline_ == nullptr) return;
  if (fence_wait_ns_ == nullptr && tracer_ == nullptr) {
    pipeline_->fence();
    return;
  }
  const obs::Span span(tracer_.get(), "fence");
  const auto start = std::chrono::steady_clock::now();
  pipeline_->fence();
  const auto now = std::chrono::steady_clock::now();
  if (fence_wait_ns_ != nullptr) {
    fence_wait_ns_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
            .count()));
    if (inflight_timed_) {
      const auto now_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now.time_since_epoch())
              .count());
      submit_to_fence_ns_->record(now_ns - inflight_since_ns_);
      inflight_timed_ = false;
    }
  }
}

double Evaluator::evaluate_one(const Genome& genome) {
  fence();
  ++evaluations_;
  if (cache_ == nullptr) {
    ++decode_calls_;
    return problem_->objective(genome, workspace(0));
  }
  double objective = 0.0;
  if (filter_misses(*cache_, hash_salt_, {&genome, 1}, {&objective, 1},
                    *misses_) == 0) {
    return objective;
  }
  misses_->values[0] = problem_->objective(genome, workspace(0));
  ++decode_calls_;
  publish_misses(cache_.get(), *misses_);
  return objective;
}

void Evaluator::set_cache(EvalCachePtr cache) {
  fence();
  cache_ = std::move(cache);
  if (pipeline_ != nullptr) pipeline_->set_cache(cache_);
}

void Evaluator::set_hash_salt(std::uint64_t salt) {
  fence();
  hash_salt_ = salt;
}

void Evaluator::set_obs(obs::RegistryPtr metrics,
                        std::shared_ptr<obs::Tracer> tracer) {
  fence();
  metrics_ = std::move(metrics);
  tracer_ = std::move(tracer);
  if (metrics_ != nullptr) {
    decode_ns_ = &metrics_->histogram("eval.decode_ns");
    batch_size_hist_ = &metrics_->histogram("eval.batch_size");
    decoded_genomes_ = &metrics_->counter("eval.decoded_genomes");
    if (backend_ == EvalBackend::kAsyncPool) {
      fence_wait_ns_ = &metrics_->histogram("eval.fence_wait_ns");
      submit_to_fence_ns_ = &metrics_->histogram("eval.submit_to_fence_ns");
    }
  } else {
    decode_ns_ = nullptr;
    batch_size_hist_ = nullptr;
    decoded_genomes_ = nullptr;
    fence_wait_ns_ = nullptr;
    submit_to_fence_ns_ = nullptr;
  }
  if (pipeline_ != nullptr) {
    pipeline_->set_obs(decode_ns_, batch_size_hist_, decoded_genomes_,
                       tracer_.get());
  }
}

long long Evaluator::decode_calls() const noexcept {
  return decode_calls_ + (pipeline_ != nullptr ? pipeline_->decode_calls() : 0);
}

int Evaluator::pipeline_width() const noexcept {
  return pipeline_ != nullptr ? pipeline_->width() : 0;
}

}  // namespace psga::ga
