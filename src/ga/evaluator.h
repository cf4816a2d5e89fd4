// The unified batched fitness-evaluation engine shared by every GA model.
//
// The survey's central axis is *where* fitness evaluation is parallelized
// (master-slave, cellular, island); this class is the single place that
// axis lives. An engine hands a population to evaluate() and the chosen
// backend fills the objective vector:
//   kSerial     — the calling thread, one reusable Workspace;
//   kThreadPool — the library thread pool, one static chunk + Workspace
//                 per lane (the master-slave model of Table III);
//   kOpenMp     — the OpenMP runtime with the same static chunking
//                 (serial when OpenMP is not compiled in).
// Objectives are pure, and the chunk→lane mapping is deterministic, so
// results are bit-identical across backends and thread counts; Workspaces
// only recycle allocations, never carry state between genomes. Every call
// is synchronous: when evaluate() returns, every objective is written.
//
// An optional EvalCache (set_cache) memoizes objectives by
// EvalCache::key; each batch is looked up with one lookup_many call on
// the engine thread, only the misses reach the backend, they are
// published with one insert_many, and decode_calls() reports how many
// genomes were actually decoded.
// Several evaluators may share one cache (islands, cluster ranks): cached
// values come from the same pure objectives, so sharing never perturbs a
// trace. hits + misses always equals the genomes looked up; when sharers
// evaluate concurrently (islands stepping in parallel), which of them
// decodes a common genome first — the hit/miss split — depends on
// their interleaving.
//
// An Evaluator instance is NOT re-entrant: it owns one Workspace per lane.
// Engines that evaluate from several threads at once (islands stepping in
// parallel) give each inner engine its own serial Evaluator instead.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/ga/eval_cache.h"
#include "src/ga/problem.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/thread_pool.h"

namespace psga::ga {

/// Which runtime executes fitness batches (selected via GaConfig).
enum class EvalBackend {
  kSerial,      ///< calling thread only
  kThreadPool,  ///< the library thread pool (master-slave slaves)
  kOpenMp,      ///< OpenMP parallel-for (serial if not compiled in)
};

struct CacheMisses;  // internal to evaluator.cpp

class Evaluator {
 public:
  /// `pool` may be null — the library default pool is used (only relevant
  /// for the thread-pool backend). `eval_batch` is the chunk size handed
  /// to Problem::objective_batch on every backend:
  /// 0 = auto (a lane-width-friendly default block), otherwise the exact
  /// block size (1 degenerates to per-genome calls). Objectives are pure
  /// and the chunk→genome mapping is deterministic, so the value never
  /// changes any objective — only how many genomes each batched decode
  /// kernel invocation sees.
  explicit Evaluator(ProblemPtr problem,
                     EvalBackend backend = EvalBackend::kSerial,
                     par::ThreadPool* pool = nullptr, int eval_batch = 0);
  ~Evaluator();
  Evaluator(Evaluator&&) noexcept;
  Evaluator& operator=(Evaluator&&) noexcept;

  /// Fills objectives[i] = problem objective of genomes[i]. Spans must
  /// have equal size. Counts toward evaluations().
  void evaluate(std::span<const Genome> genomes, std::span<double> objectives);

  /// Single-genome convenience on lane 0's Workspace (local search, B&B
  /// comparisons). Counts toward evaluations() and, when decoded, toward
  /// the same decode metrics as evaluate().
  double evaluate_one(const Genome& genome);

  /// Attaches (or clears) the memoization cache. The cache may be shared
  /// with other evaluators.
  void set_cache(EvalCachePtr cache);

  /// Namespaces this evaluator's cache keys. A cache shared across
  /// *different* objective landscapes — the session layer's cross-replan
  /// store, where the same suffix genome means different schedules under
  /// different frozen prefixes and downtimes — must keep their entries
  /// apart. The salt is folded into the key through a bijective mixer, so
  /// for any fixed genome distinct salts can never produce the same key:
  /// a cross-namespace hit is impossible, not merely improbable, and the
  /// cache's genome-equality check still catches ordinary hash
  /// collisions within a namespace.
  /// Salt 0 (the default) leaves keys exactly as before.
  void set_hash_salt(std::uint64_t salt);

  /// Attaches the observability sinks (both may be null). Handles into
  /// `metrics` are resolved once, here — the hot path then costs two
  /// clock reads plus a few relaxed adds per *batch*, never per genome.
  /// Metric names: eval.decode_ns / eval.batch_size / eval.decoded_genomes
  /// on every decode batch (evaluate_one's single decode included).
  /// Span: decode.
  void set_obs(obs::RegistryPtr metrics, std::shared_ptr<obs::Tracer> tracer);
  const EvalCache* cache() const { return cache_.get(); }
  /// Shared handle for per-run stat snapshots (Engine::eval_cache_shared).
  EvalCachePtr cache_ptr() const { return cache_; }

  /// Total genomes evaluated through this Evaluator — the *logical*
  /// count: a cache hit counts exactly once, same as a decode, so
  /// evaluation budgets see identical numbers with the cache on or off.
  long long evaluations() const noexcept { return evaluations_; }

  /// Genomes actually decoded (cache misses reaching the backend).
  /// Equals evaluations() when no cache is attached.
  long long decode_calls() const noexcept { return decode_calls_; }

  EvalBackend backend() const noexcept { return backend_; }
  /// Resolved objective_batch chunk size (the auto default when the
  /// constructor was given 0).
  int eval_batch() const noexcept { return static_cast<int>(batch_size_); }
  const Problem& problem() const noexcept { return *problem_; }

  /// Worker-lane count of the active backend (1 for kSerial).
  int lanes() const noexcept { return static_cast<int>(workspaces_.size()); }

 private:
  Workspace& workspace(std::size_t lane) { return *workspaces_[lane]; }
  /// The one metered decode: runs `decode` (which decodes `count`
  /// genomes) under the decode span, eval.decode_ns / eval.batch_size /
  /// eval.decoded_genomes and decode_calls(). Both the batch path and
  /// evaluate_one's single decode go through it.
  template <typename Decode>
  void metered_decode(std::size_t count, Decode&& decode);
  /// Backend dispatch without cache filtering or metering.
  void raw_evaluate(std::span<const Genome> genomes,
                    std::span<double> objectives);

  ProblemPtr problem_;
  EvalBackend backend_;
  par::ThreadPool* pool_;
  std::size_t batch_size_;  ///< objective_batch chunk size (resolved)
  std::vector<std::unique_ptr<Workspace>> workspaces_;  // one per lane
  EvalCachePtr cache_;
  std::uint64_t hash_salt_ = 0;  ///< cache-key namespace (see set_hash_salt)
  long long evaluations_ = 0;
  long long decode_calls_ = 0;
  /// Reusable miss buffers of the synchronous cache-filtering path.
  std::unique_ptr<CacheMisses> misses_;
  // Observability sinks (set_obs). The shared handles keep the registry
  // and tracer alive; the raw pointers are the pre-resolved hot-path
  // handles (stable for the registry's lifetime).
  obs::RegistryPtr metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  obs::Histogram* decode_ns_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* decoded_genomes_ = nullptr;
};

}  // namespace psga::ga
