// psga_perfbench — the repo benchmark (see ../README.md).
//
//   psga_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload in this process, checks its outputs, prints a
// human-readable report on stderr and, as the last line of stdout, one
// JSON object {"correct","attempted","failed","metrics"}. Untraced runs
// (--trace 0) report the end-to-end metrics, traced runs (--trace 1) the
// per-layer ledger; the metric names and units are the ones listed in
// BENCHMARK.json, which perfbench/run.py cross-checks.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"evals_per_s", "1/s"},
    {"wait_us_p50", "us"},
};

// A layer a workload does not exercise reports 0 (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"ga.select_ns", "ns"},
    {"ga.cross_ns", "ns"},
    {"ga.mutate_ns", "ns"},
    {"ga.breed_share", "ratio"},
    {"ga.evaluate_ns_per_genome", "ns"},
    {"ga.eval_share", "ratio"},
    {"sched.decode_ns_per_genome", "ns"},
    {"sched.ops_per_s", "1/s"},
    {"par.pool_eff_2", "ratio"},
    {"par.pool_eff_4", "ratio"},
    {"par.lanes", "count"},
    {"par.nproc", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_insert", "ratio"},
    {"cache.decode_saved_share", "ratio"},
    {"cache.lookup_ns", "ns"},
    {"cache.insert_ns", "ns"},
    {"ga.migrants_per_epoch", "count"},
    {"ga.migration_step_excess_us", "us"},
    {"ledger.step_us", "us"},
    {"tail.wait_us_p90", "us"},
    {"ledger.breed_us", "us"},
    {"ledger.evaluate_us", "us"},
    {"ledger.unattributed_share", "ratio"},
    {"trace.overhead", "ratio"},
    {"session.replan_ms_p50", "ms"},
    {"session.evals_per_event", "count"},
    {"session.carried_per_event", "count"},
    {"session.adopted_ratio", "ratio"},
    {"session.slo_miss_rate", "ratio"},
    {"svc.ping_us_p50", "us"},
    {"svc.event_wire_ms_p50", "ms"},
    {"svc.submit_ms_p50", "ms"},
    {"svc.submit_ms_p90", "ms"},
    {"svc.submit_overhead_ms_p50", "ms"},
    {"svc.queue_ms_p50", "ms"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "psga_perfbench: " << problem
            << "\nusage: psga_perfbench --workload "
               "flowshop-breed|jobshop-active-pool|island-cache|"
               "daemon-session --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return options;
}

std::string number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Outcome out;
  if (perfbench::is_solver_workload(options.workload)) {
    out = perfbench::run_solver_workload(options);
  } else if (options.workload == "daemon-session") {
    out = perfbench::run_daemon_workload(options);
  } else {
    usage("unknown workload " + options.workload);
  }

  std::string metrics;
  std::cerr << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace " << options.trace
            << " lanes " << perfbench::lanes() << " nproc "
            << perfbench::nproc() << "\n";
  for (const MetricDef& def : options.trace ? std::span<const MetricDef>(kPerLayer)
                                            : std::span<const MetricDef>(kEndToEnd)) {
    const auto found = out.metrics.find(def.name);
    std::string value;
    std::string shown;
    if (found == out.metrics.end()) {
      value = "0";
      shown = "0 (layer not exercised by this workload)";
    } else if (!found->second) {
      value = "null";
      shown = "skipped";
    } else if (!std::isfinite(*found->second)) {
      out.error(std::string("metric ") + def.name + " is not finite");
      value = "null";
      shown = "not finite";
    } else {
      value = shown = number(*found->second);
    }
    std::cerr << "  " << def.name << " = " << shown << " " << def.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + def.unit + "\"}";
  }
  for (const std::string& note : out.notes) std::cerr << "  " << note << "\n";
  std::cerr << "  error_rate = " << out.failed << "/" << out.attempted << "\n";

  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
