#include "common.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "src/par/rng.h"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    note("FAILED check: " + what);
  }
}

void Outcome::error(const std::string& what) {
  ++attempted;
  ++failed;
  note("FAILED operation: " + what);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001b3ULL + index;
  return (psga::par::splitmix64(state) & 0x7fffffffULL) | 1ULL;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int lanes() { return std::min(2, nproc()); }

CpuPin::CpuPin(long long slot) {
  if (slot < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  long long target = slot % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

std::uint64_t stolen_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return cpu == "cpu" && stat ? steal : 0;
}

std::vector<std::size_t> least_stolen(const std::vector<std::uint64_t>& steal) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  const auto clean = static_cast<std::size_t>(
      std::count(steal.begin(), steal.end(), std::uint64_t{0}));
  order.resize(std::max(clean, (steal.size() + 1) / 2));
  std::sort(order.begin(), order.end());
  return order;
}

void record_ending_now(obs::Tracer* tracer, const char* name,
                       std::uint64_t dur_ns) {
  if (tracer == nullptr) return;
  const std::uint64_t end = tracer->now_ns();
  tracer->record(name, end >= dur_ns ? end - dur_ns : 0, dur_ns);
}

void write_trace(const Options& options, const obs::Tracer& tracer,
                 Outcome& outcome) {
  const std::string dir = ".bench_build/traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  obs::TraceProcess process;
  process.pid = 1;
  process.name = options.workload;
  process.events = tracer.events();
  const std::size_t spans = process.events.size();
  obs::write_chrome_trace(out, {process});
  outcome.check(static_cast<bool>(out), "write trace " + path);
  outcome.note("trace: " + path + " (" + std::to_string(spans) + " spans, " +
               std::to_string(tracer.dropped()) + " dropped)");
}

}  // namespace perfbench
