// The daemon-session workload: the serving model. An in-process
// svc::Server (the psgad code path) listens on a Unix socket inside the
// checkout with one job worker and one session worker; one svc::Client
// connection opens replanning sessions on ft10 and replays a seeded event
// trace per session, submitting a short flow-shop job between events and
// waiting for it. A closed loop: each request is sent after the previous
// answer.
//
// A run spans several server lifetimes so set-up (Server start, first
// connect, first session_open) is measured several times. Each session's
// transcript hash is checked against an in-process session::Session
// replay of the same trace and seed, each job's objective against an
// in-process run of the same spec, and each lifetime ends with the job
// identity admitted == completed + failed + cancelled.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "src/exp/json.h"
#include "src/ga/problem_registry.h"
#include "src/ga/solver.h"
#include "src/session/session.h"
#include "src/svc/client.h"
#include "src/svc/server.h"

namespace perfbench {
namespace {

namespace exp = psga::exp;
namespace ga = psga::ga;
namespace session = psga::session;
namespace svc = psga::svc;

constexpr int kLifetimes = 16;
constexpr int kEventsPerSession = 20;
constexpr int kReplanGenerations = 25;
constexpr double kSloSeconds = 0.05;
constexpr const char* kSessionInstance = "ft10";
constexpr const char* kSessionSolver = "engine=simple pop=64";
constexpr const char* kJobSpec = "problem=flowshop instance=ta001 engine=simple";
constexpr int kJobGenerations = 3;

/// The end-to-end samples of one session, kept together so a session that
/// overlapped hypervisor steal can be left out as a whole.
struct SessionSamples {
  std::vector<double> event_us;
  std::vector<double> submit_ms;
  /// Per event and the job after it: evaluations answered ÷ time spent
  /// waiting for both answers.
  std::vector<double> round_rate;
  double round_evaluations = 0.0;  ///< the round in flight
  double round_s = 0.0;
  std::uint64_t steal = 0;  ///< jiffies stolen while it ran
};

struct Samples {
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_steal;
  std::vector<SessionSamples> sessions;
  // Per-layer (traced runs).
  std::vector<double> replan_ms;
  std::vector<double> wire_ms;
  std::vector<double> submit_overhead_ms;
  std::vector<double> ping_us;
  std::vector<double> queue_ms;
  std::vector<double> evals_per_event;
  std::vector<double> carried_per_event;
  long long events = 0;
  long long adopted = 0;
  long long slo_missed = 0;
  long long sessions_unchecked = 0;
};

svc::SessionOptions session_options(std::uint64_t seed) {
  svc::SessionOptions options;
  options.solver = kSessionSolver;
  options.generations = kReplanGenerations;
  options.slo_seconds = kSloSeconds;
  options.seed = seed;
  options.warm = true;
  return options;
}

/// The in-process reference: the same trace and seed without the SLO
/// cap, so its transcript is the deterministic answer the daemon must
/// reproduce whenever its own cap never fired.
std::uint64_t reference_transcript(const psga::sched::JobShopInstance& inst,
                                   const std::vector<session::Event>& trace,
                                   std::uint64_t seed) {
  session::SessionConfig config;
  config.solver = kSessionSolver;
  config.replan_generations = kReplanGenerations;
  config.seed = seed;
  session::Session reference(inst, config);
  reference.open();
  for (const session::Event& event : trace) reference.apply(event);
  return reference.transcript_hash();
}

double reference_job_objective(const std::string& spec) {
  ga::Solver solver = ga::Solver::build(ga::RunSpec::parse(spec));
  return solver.run(ga::StopCondition::generations(kJobGenerations))
      .best_objective;
}

class DaemonRun {
 public:
  DaemonRun(const Options& options, Outcome& out)
      : options_(options),
        out_(out),
        tracer_(options.trace ? std::make_unique<obs::Tracer>(1 << 16)
                              : nullptr),
        inst_(ga::resolve_job_shop_instance(kSessionInstance)) {}

  Samples run() {
    const std::string dir = ".bench_build/run";
    std::filesystem::create_directories(dir);
    const Clock::time_point start = Clock::now();
    for (int life = 0; life < kLifetimes; ++life) {
      const std::string socket = dir + "/psgad-" + std::to_string(::getpid()) +
                                 "-" + std::to_string(life) + ".sock";
      const double until = options_.seconds * (life + 1) / kLifetimes;
      try {
        lifetime(socket, [&] { return seconds_since(start) < until; });
      } catch (const std::exception& e) {
        out_.error("server lifetime " + std::to_string(life) + ": " +
                   e.what());
      }
    }
    if (tracer_) write_trace(options_, *tracer_, out_);
    return std::move(samples_);
  }

 private:
  template <class KeepGoing>
  void lifetime(const std::string& socket, KeepGoing keep_going) {
    const Clock::time_point start = Clock::now();
    svc::ServerConfig config;
    config.socket_path = socket;
    config.workers = 1;
    config.session_workers = 1;
    std::optional<svc::Server> server;
    std::optional<svc::Client> client;
    std::uint64_t seed = next_seed();
    Opened opened;
    const std::uint64_t stolen = stolen_jiffies();
    {
      const obs::Span span(tracer_.get(), "svc.setup");
      server.emplace(config);
      server->start();
      client.emplace(socket);
      opened = open(*client, seed);
    }
    samples_.setup_s.push_back(seconds_since(start));
    samples_.setup_steal.push_back(stolen_jiffies() - stolen);

    while (true) {
      run_session(*client, opened, seed);
      if (!keep_going()) break;
      seed = next_seed();
      try {
        opened = open(*client, seed);
      } catch (const svc::ServiceError& e) {
        out_.error(std::string("session_open: ") + e.what());
        break;
      }
    }
    check_identity(*client);
    client.reset();
    server->stop();
  }

  std::uint64_t next_seed() { return derive_seed(options_.seed, sessions_++); }

  struct Opened {
    long long id = 0;
    /// The opening solve answered inside the SLO, so its cap never fired.
    bool in_slo = false;
  };

  Opened open(svc::Client& client, std::uint64_t seed) {
    const obs::Span span(tracer_.get(), "svc.session_open");
    const Clock::time_point start = Clock::now();
    Opened opened;
    opened.id = client.session_open(kSessionInstance, session_options(seed));
    opened.in_slo = seconds_since(start) <= kSloSeconds;
    out_.check(true, "session_open");
    return opened;
  }

  void run_session(svc::Client& client, const Opened& opened,
                   std::uint64_t seed) {
    const long long id = opened.id;
    const std::vector<session::Event> trace =
        session::random_trace(inst_, kEventsPerSession, seed);
    bool slo_met = opened.in_slo;
    session_ = SessionSamples{};
    const std::uint64_t stolen = stolen_jiffies();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (tracer_) ping(client);
      slo_met = event(client, id, trace[i]) && slo_met;
      submit(client, derive_seed(seed, i));
      if (session_.round_s > 0.0) {
        session_.round_rate.push_back(session_.round_evaluations /
                                      session_.round_s);
      }
      session_.round_evaluations = session_.round_s = 0.0;
    }
    session_.steal = stolen_jiffies() - stolen;
    samples_.sessions.push_back(std::move(session_));
    try {
      const exp::Json closed = [&] {
        const obs::Span span(tracer_.get(), "svc.session_close");
        return client.session_close(id);
      }();
      const std::uint64_t hash = closed.find("transcript_hash")->as_u64();
      if (!slo_met) {
        // The SLO cap cut a replan short, so the daemon's answer is no
        // longer the deterministic one; the miss is counted instead.
        ++samples_.sessions_unchecked;
        return;
      }
      const obs::Span span(tracer_.get(), "session.reference_replay");
      out_.check(hash == reference_transcript(inst_, trace, seed),
                 "session seed=" + std::to_string(seed) +
                     ": daemon transcript_hash != in-process replay");
    } catch (const std::exception& e) {
      out_.error("session_close seed=" + std::to_string(seed) + ": " +
                 e.what());
    }
  }

  /// One session_event round trip; returns whether the daemon's replan
  /// stayed inside the SLO (its wall-clock cap never fired).
  bool event(svc::Client& client, long long id, const session::Event& event) {
    ++samples_.events;
    try {
      const Clock::time_point start = Clock::now();
      const exp::Json reply = [&] {
        const obs::Span span(tracer_.get(), "svc.session_event");
        return client.session_event(id, event.to_json());
      }();
      const double rt = seconds_since(start);
      session_.event_us.push_back(rt * 1e6);
      session_.round_s += rt;
      const double evaluations = reply.number_or("evaluations", 0.0);
      session_.round_evaluations += evaluations;
      const double replan = reply.number_or("seconds", 0.0);
      const bool capped = !reply.find("slo_met")->as_bool();
      samples_.slo_missed += capped || rt > kSloSeconds ? 1 : 0;
      samples_.replan_ms.push_back(replan * 1e3);
      samples_.wire_ms.push_back((rt - replan) * 1e3);
      samples_.evals_per_event.push_back(evaluations);
      samples_.carried_per_event.push_back(reply.number_or("carried", 0.0));
      samples_.adopted += reply.find("adopted")->as_bool() ? 1 : 0;
      out_.check(reply.number_or("best", 0.0) <=
                     reply.number_or("baseline", 0.0),
                 "session_event: adopted plan worse than its baseline");
      return !capped;
    } catch (const std::exception& e) {
      ++samples_.slo_missed;
      out_.error(std::string("session_event: ") + e.what());
      return false;
    }
  }

  void submit(svc::Client& client, std::uint64_t seed) {
    const std::string spec =
        std::string(kJobSpec) + " seed=" + std::to_string(seed);
    try {
      svc::SubmitOptions options;
      options.generations = kJobGenerations;
      const Clock::time_point start = Clock::now();
      const svc::JobRecord record = [&] {
        const obs::Span span(tracer_.get(), "svc.submit_wait");
        return client.wait(client.submit(spec, options));
      }();
      const double rt = seconds_since(start);
      session_.submit_ms.push_back(rt * 1e3);
      samples_.submit_overhead_ms.push_back((rt - record.seconds) * 1e3);
      session_.round_s += rt;
      session_.round_evaluations += static_cast<double>(record.evaluations);
      const bool done = record.state == svc::JobState::kDone &&
                        record.generations == kJobGenerations;
      out_.check(done && record.best_objective ==
                             reference_job_objective(spec),
                 "job " + spec + ": not done, or objective differs from an "
                                 "in-process run");
    } catch (const std::exception& e) {
      out_.error("submit " + spec + ": " + e.what());
    }
  }

  void ping(svc::Client& client) {
    try {
      const Clock::time_point start = Clock::now();
      {
        const obs::Span span(tracer_.get(), "svc.ping");
        client.ping();
      }
      samples_.ping_us.push_back(seconds_since(start) * 1e6);
    } catch (const std::exception& e) {
      out_.error(std::string("ping: ") + e.what());
    }
  }

  /// End-of-lifetime identities from the daemon's own counters.
  void check_identity(svc::Client& client) {
    try {
      const obs::Span span(tracer_.get(), "svc.stats");
      const exp::Json stats = client.stats();
      const exp::Json& metrics = *stats.find("metrics");
      const exp::Json& counters = *metrics.find("counters");
      auto counter = [&](const char* name) {
        const exp::Json* value = counters.find(name);
        return value != nullptr ? value->as_u64() : 0;
      };
      out_.check(counter("svc.jobs.admitted") ==
                     counter("svc.jobs.completed") +
                         counter("svc.jobs.failed") +
                         counter("svc.jobs.cancelled"),
                 "stats: svc.jobs.admitted != completed + failed + cancelled");
      const exp::Json info = client.info();
      const exp::Json& jobs = *info.find("jobs");
      out_.check(jobs.find("queued")->as_i64() == 0 &&
                     jobs.find("running")->as_i64() == 0 &&
                     info.find("sessions")->as_i64() == 0,
                 "info: jobs queued/running or sessions still open at the end");
      if (const exp::Json* queue =
              metrics.find("histograms")->find("svc.job.queue_ns")) {
        samples_.queue_ms.push_back(queue->number_or("p50", 0.0) / 1e6);
      }
    } catch (const std::exception& e) {
      out_.error(std::string("stats/info: ") + e.what());
    }
  }

  const Options& options_;
  Outcome& out_;
  std::unique_ptr<obs::Tracer> tracer_;
  psga::sched::JobShopInstance inst_;
  Samples samples_;
  SessionSamples session_;  ///< the session in flight
  std::uint64_t sessions_ = 0;
};

}  // namespace

Outcome run_daemon_workload(const Options& options) {
  Outcome out;
  const Samples s = DaemonRun(options, out).run();
  std::vector<double> setup_s;
  for (std::size_t i : least_stolen(s.setup_steal)) {
    setup_s.push_back(s.setup_s[i]);
  }
  std::vector<std::uint64_t> session_steal;
  for (const SessionSamples& session : s.sessions) {
    session_steal.push_back(session.steal);
  }
  const std::vector<std::size_t> used = least_stolen(session_steal);
  std::vector<double> event_us;
  std::vector<double> round_rate;
  std::vector<double> submit_ms;
  for (std::size_t i : used) {
    const SessionSamples& session = s.sessions[i];
    event_us.insert(event_us.end(), session.event_us.begin(),
                    session.event_us.end());
    round_rate.insert(round_rate.end(), session.round_rate.begin(),
                      session.round_rate.end());
    submit_ms.insert(submit_ms.end(), session.submit_ms.begin(),
                     session.submit_ms.end());
  }
  if (!options.trace) {
    out.set("setup_s", median(setup_s));
    // A median over rounds: a burst of hypervisor steal that slows a few
    // of them moves a ratio of sums, not the median.
    out.set("evals_per_s", median(round_rate));
    out.set("wait_us_p50", quantile(event_us, 0.50));
  } else {
    out.set("tail.wait_us_p90", quantile(event_us, 0.90));
    const double events = static_cast<double>(std::max(1LL, s.events));
    out.set("session.replan_ms_p50", median(s.replan_ms));
    out.set("session.evals_per_event", mean(s.evals_per_event));
    out.set("session.carried_per_event", mean(s.carried_per_event));
    out.set("session.adopted_ratio", static_cast<double>(s.adopted) / events);
    out.set("session.slo_miss_rate",
            static_cast<double>(s.slo_missed) / events);
    out.set("svc.ping_us_p50", median(s.ping_us));
    out.set("svc.event_wire_ms_p50", median(s.wire_ms));
    out.set("svc.submit_ms_p50", quantile(submit_ms, 0.50));
    out.set("svc.submit_ms_p90", quantile(submit_ms, 0.90));
    out.set("svc.submit_overhead_ms_p50", median(s.submit_overhead_ms));
    out.set("svc.queue_ms_p50", median(s.queue_ms));
  }
  out.note("daemon: " + std::to_string(s.setup_s.size()) +
           " server lifetimes, " + std::to_string(s.sessions.size()) +
           " sessions (" + std::to_string(used.size()) + " used), " +
           std::to_string(s.events) + " events; slo_miss_rate=" +
           std::to_string(static_cast<double>(s.slo_missed) /
                          static_cast<double>(std::max(1LL, s.events))) +
           ", submit_ms p50/p90=" + std::to_string(quantile(submit_ms, 0.5)) +
           "/" + std::to_string(quantile(submit_ms, 0.9)) +
           ", sessions not transcript-checked (SLO cap fired)=" +
           std::to_string(s.sessions_unchecked));
  return out;
}

}  // namespace perfbench
