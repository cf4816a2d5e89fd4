#include "src/par/thread_pool.h"

#include "src/par/env.h"

namespace psga::par {

namespace {

/// Tells the core this is a spin-wait loop (x86 `pause`): cheaper for the
/// sibling hyperthread and no memory-order mis-speculation on exit.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until done(value) holds and returns the value that satisfied it:
/// spins for ThreadPool::kSpinBudget, then parks on the atomic.
template <typename Done>
std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& value,
                             Done done) {
  using Clock = std::chrono::steady_clock;
  constexpr unsigned kSpinsPerClockRead = 64;
  const Clock::time_point deadline = Clock::now() + ThreadPool::kSpinBudget;
  for (unsigned spins = 1;; ++spins) {
    const std::uint32_t now = value.load(std::memory_order_acquire);
    if (done(now)) return now;
    cpu_relax();
    if (spins % kSpinsPerClockRead == 0) {
      if (Clock::now() >= deadline) break;
      // Free the CPU if another thread wants it: on an oversubscribed
      // host that thread is often the one this wait is waiting for.
      std::this_thread::yield();
    }
  }
  for (;;) {
    const std::uint32_t now = value.load(std::memory_order_acquire);
    if (done(now)) return now;
    value.wait(now, std::memory_order_acquire);
  }
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = default_thread_count();
  const int helpers = threads - 1;  // caller thread is worker 0
  tasks_.resize(static_cast<std::size_t>(helpers > 0 ? helpers : 0));
  workers_.reserve(tasks_.size());
  for (std::size_t w = 0; w < tasks_.size(); ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (std::uint32_t seen = 0;;) {
    seen = spin_then_park(generation_,
                          [seen](std::uint32_t g) { return g != seen; });
    if (stop_) return;
    const Task task = tasks_[worker_index];
    if (task.begin < task.end) (*task.body)(task.lane, task.begin, task.end);
    // Every helper acknowledges every generation, even with an empty
    // range — pending_ counts helpers, not nonempty chunks.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ThreadPool::parallel_lanes(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t lanes = tasks_.size() + 1;
  if (lanes == 1 || n == 1) {
    fn(0, 0, n);
    return;
  }
  // Static chunking: lane k gets [k*n/lanes, (k+1)*n/lanes). The previous
  // region ended with pending_ == 0, so no helper reads tasks_ now.
  for (std::size_t k = 1; k < lanes; ++k) {
    tasks_[k - 1] = Task{&fn, k, k * n / lanes, (k + 1) * n / lanes};
  }
  pending_.store(static_cast<std::uint32_t>(tasks_.size()),
                 std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  const std::size_t my_end = n / lanes;
  if (my_end > 0) fn(0, 0, my_end);
  spin_then_park(pending_, [](std::uint32_t left) { return left == 0; });
}

void ThreadPool::parallel_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_lanes(n, [&fn](std::size_t /*lane*/, std::size_t begin,
                          std::size_t end) { fn(begin, end); });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_chunks(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& default_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace psga::par
