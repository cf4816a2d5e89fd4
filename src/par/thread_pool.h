// Fixed-size worker pool with a static-chunked parallel_for.
//
// This is the CPU carrier for the master-slave engine (Table III of the
// survey: fitness evaluation farmed to slaves), the cellular engine
// (Table IV: one lane per grid region) and the thread-backend island
// engine (Table V). Work is split into contiguous ranges, one per worker,
// so the mapping from loop index to worker is deterministic; combined with
// per-index Rng streams this keeps every engine's output independent of
// the worker count.
//
// Fork-join is spin-then-park on two atomics, with no mutex. The caller
// writes the helpers' tasks, sets `pending_` to the helper count and bumps
// `generation_` with release order; a helper that loads the new generation
// with acquire order therefore sees its task, runs it, and decrements
// `pending_` with release order, so the caller's acquire load of
// `pending_ == 0` sees everything the helpers wrote. Both waits — helpers
// for the next generation, the caller for `pending_ == 0` — first spin for
// kSpinBudget and only then park on std::atomic::wait (a futex). A spin
// executes `pause`; every 64 spins it reads the clock and yields, so on an
// oversubscribed host a spinner hands its CPU to the thread it is waiting
// for instead of holding it for the whole budget. Engines fork-join every
// few hundred microseconds, so most regions start and end without a
// futex call; an idle pool parks within kSpinBudget of its last region.
//
// Not re-entrant: one region at a time per pool, started by one caller
// thread at a time. fn must not call back into the same pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace psga::par {

class ThreadPool {
 public:
  /// How long a helper waiting for work, or a caller waiting for its
  /// helpers, spins before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// Creates `threads` workers; values < 1 are clamped to 1. A pool of one
  /// thread executes everything inline on the caller.
  explicit ThreadPool(int threads = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for i in [0, n), blocking until all iterations finish.
  /// fn must be safe to call concurrently for distinct i. Exceptions from
  /// fn terminate (GA kernels are noexcept by design); keep kernels clean.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs fn(begin, end) once per contiguous chunk — cheaper when the body
  /// wants to hoist per-worker state out of the loop.
  void parallel_chunks(std::size_t n,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// Like parallel_chunks, but also passes the lane index (0-based, lane 0
  /// is the calling thread). Lane k always receives the k-th static chunk
  /// [k*n/lanes, (k+1)*n/lanes), so per-lane state (e.g. an evaluation
  /// Workspace) is reused deterministically across calls.
  void parallel_lanes(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
        nullptr;
    std::size_t lane = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<Task> tasks_;  // one slot per helper thread
  bool stop_ = false;        // written before the destructor's generation bump
  std::atomic<std::uint32_t> generation_{0};  // bumped per parallel region
  std::atomic<std::uint32_t> pending_{0};     // helpers yet to acknowledge
  std::vector<std::thread> workers_;          // last: threads use the above
};

/// Library-wide default pool (sized from PSGA_THREADS). Engines take an
/// optional pool pointer and fall back to this.
ThreadPool& default_pool();

}  // namespace psga::par
