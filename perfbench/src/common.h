// Shared plumbing of the psga benchmark: options, the per-run outcome
// (operations attempted/failed plus named metrics), order statistics and
// the out-of-program span recording used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <sched.h>

#include "src/obs/trace.h"

namespace perfbench {

namespace obs = psga::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one benchmark run produced. Every operation the benchmark tries
/// (a solver run, a daemon request, a correctness or identity check)
/// counts as attempted; an exception, an {ok:false} reply or a failed
/// check counts as failed. Metric values are keyed by the names in
/// BENCHMARK.json; nullopt marks a metric that was skipped (reported as
/// JSON null, e.g. a pool width above nproc).
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, std::optional<double>> metrics;
  std::vector<std::string> notes;  ///< human-readable report lines (stderr)

  /// Counts one operation; a false `ok` counts as failed and leaves
  /// `what` in the report.
  void check(bool ok, const std::string& what);
  /// Counts one operation that threw.
  void error(const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
  void skip(const std::string& name) { metrics[name] = std::nullopt; }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Deterministic per-item seed from the run seed (SplitMix64 finalizer),
/// kept below 2^31 so it survives every integer field of the protocol.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Median / linear-interpolated quantile (q in [0,1]) of a sample; 0 for
/// an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
double mean(const std::vector<double>& samples);

/// Lanes the parallel workloads use: min(2, nproc), caller included. A
/// fork-join step waits for its slowest lane, so on a shared virtual
/// machine the chance that a step escapes hypervisor steal falls with
/// every lane: at 20% steal per vCPU, 4 lanes leave most steps slowed
/// and move the median, 2 lanes leave most of them clean.
int lanes();
int nproc();

/// Pins the calling thread to the `slot`-th CPU it may run on (modulo
/// their count) until destruction, then restores its affinity; a negative
/// slot leaves the thread alone. The serial workload rotates its runs over
/// all CPUs this way: on a virtual machine one vCPU can run a single
/// thread 20-30% slower than the others for seconds at a time, and a run
/// should not depend on where the scheduler happened to place it.
class CpuPin {
 public:
  explicit CpuPin(long long slot);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Jiffies the hypervisor has stolen from this machine's CPUs so far (the
/// steal column of /proc/stat); 0 where the kernel does not report it.
std::uint64_t stolen_jiffies();

/// The items a run's metrics are computed from, given how many steal
/// jiffies overlapped each: every item that overlapped none when those are
/// at least half, else the half that overlapped least. Host contention
/// arrives in bursts on shared machines; this keeps a burst from moving
/// the result without ever using less than half of what was measured.
std::vector<std::size_t> least_stolen(const std::vector<std::uint64_t>& steal);

/// Records a span named `name` that ends now and lasted `dur_ns`
/// (null-tolerant, like obs::Span). For intervals measured with
/// steady_clock outside an RAII scope — the gap between two run-loop
/// callbacks.
void record_ending_now(obs::Tracer* tracer, const char* name,
                       std::uint64_t dur_ns);

/// Writes the tracer's spans as Chrome-trace JSON to
/// `.bench_build/traces/<workload>-seed<seed>.json` and notes the path and
/// drop count.
void write_trace(const Options& options, const obs::Tracer& tracer,
                 Outcome& outcome);

Outcome run_solver_workload(const Options& options);
Outcome run_daemon_workload(const Options& options);
bool is_solver_workload(const std::string& name);

}  // namespace perfbench
