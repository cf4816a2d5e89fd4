// psga::obs — opt-in stage tracing.
//
// A Tracer is a bounded per-run buffer of completed spans (generation,
// breed, batch decode, migration, local-search climb, ...). Writers claim a slot with one atomic fetch_add and fill
// it in place — no locks, no allocation after construction; when the
// buffer fills, further spans are counted as dropped rather than
// wrapping, so early-run structure survives. Span names must be string
// literals (or otherwise outlive the tracer): slots store the pointer.
//
// Export is the Chrome trace-event JSON format ("ph":"X" complete
// events), loadable directly in chrome://tracing or https://ui.perfetto.dev.
// When a sweep merges many per-cell tracers, each cell becomes one
// `pid` so Perfetto renders cells as separate process tracks.
//
// Tracing is opt-in per run (`trace=on` spec token / `--trace`); every
// recording site also works with a null tracer at the cost of one
// branch, and a test pins RunResults bit-identical with tracing on/off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace psga::obs {

/// One completed span. `name` must point at storage outliving the
/// tracer (string literals at every call site).
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  // relative to the tracer's epoch
  std::uint64_t dur_ns = 0;
  int tid = 0;  // this_thread_index() of the recording thread
};

/// Bounded lock-free span sink. record() is an atomic slot claim plus
/// in-place stores; events() is a quiescent-time snapshot (call it
/// after the run's threads have fenced, not while they race).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Nanoseconds since this tracer's construction (steady clock).
  std::uint64_t now_ns() const noexcept;

  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns) noexcept;

  /// Completed spans in claim order, truncated to capacity.
  std::vector<SpanEvent> events() const;

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanEvent> slots_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span: times construction→destruction and records into the
/// tracer. Null-tolerant so call sites stay unconditional:
///   obs::Span span(tracer_.get(), "decode");
class Span {
 public:
  Span(Tracer* tracer, const char* name) noexcept
      : tracer_(tracer), name_(name),
        start_ns_(tracer != nullptr ? tracer->now_ns() : 0) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, start_ns_, tracer_->now_ns() - start_ns_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t start_ns_;
};

/// One Perfetto process track: a named pid plus its spans (timestamps
/// already relative to that tracer's epoch).
struct TraceProcess {
  int pid = 0;
  std::string name;
  std::vector<SpanEvent> events;
};

/// Writes Chrome trace-event JSON ({"traceEvents":[...]}) with one
/// complete ("ph":"X") event per span; ts/dur are microseconds as the
/// format requires (fractional, so ns precision survives).
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceProcess>& processes);

}  // namespace psga::obs
