// End-to-end benchmark for psga. Each workload does fixed, seeded
// work as a closed loop and times the library (ft10-breed, ft10-gt)
// or the daemon (serve-mixed) from outside, through public calls only.
//
//   psga_e2e --workload ft10-breed --seed 3 --seconds 20 --trace 0
//
// --seconds sizes the fixed work list (about that long on a 4-vCPU host);
// both sides of a comparison therefore do identical work, and the digest
// line proves it. --trace 1 runs the timed phase twice, untraced then
// traced, records spans around every public call and reports the
// per-layer ledger. --smoke shrinks every list to a few operations.
//
// stdout: a context line, a digest line, (traced) a ledger line, and as
// the last line {"correct", "attempted", "failed", "metrics"}. A set-up
// failure or a non-Release build exits non-zero without a result line.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/json.h"
#include "src/exp/sweep_spec.h"
#include "src/exp/telemetry.h"
#include "src/ga/evaluator.h"
#include "src/ga/problem_registry.h"
#include "src/ga/solver.h"
#include "src/par/thread_pool.h"
#include "src/session/session.h"
#include "src/stats/descriptive.h"
#include "src/svc/client.h"
#include "src/svc/dispatch.h"
#include "src/svc/server.h"

namespace {

using psga::exp::Json;
namespace ga = psga::ga;
namespace par = psga::par;
namespace session = psga::session;
namespace svc = psga::svc;
namespace exp = psga::exp;
using Clock = std::chrono::steady_clock;
using psga::stats::median;

const Clock::time_point kEpoch = Clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double ms_between(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) / 1e6;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

// Per-operation seeds: small positive integers, so they survive every
// wire format (the session_open seed travels as a signed JSON integer).
std::uint64_t op_seed(std::uint64_t seed, int index, int stream) {
  return (exp::derive_seed(seed, static_cast<std::uint64_t>(index),
                           static_cast<std::uint64_t>(stream)) >>
          33) +
         1;
}

// --- span ledger ------------------------------------------------------------
// The benchmark's own span records: obs::Tracer has no parent or request
// field, so spans around public calls are kept here and written at exit.

struct SpanRecord {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  int parent;
  long long request;
};

class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {}

  bool on() const { return on_; }

  int begin(const char* name, int parent, long long request) {
    if (!on_) return -1;
    const std::uint64_t start = now_ns();
    std::lock_guard lock(mutex_);
    spans_.push_back({name, start, start, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id < 0) return;
    const std::uint64_t stop = now_ns();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = stop;
  }

  int add(const char* name, std::uint64_t start, std::uint64_t end,
          int parent, long long request) {
    if (!on_) return -1;
    std::lock_guard lock(mutex_);
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Per span name: count, total and self milliseconds. Self time is a
  /// span's duration minus the part of it its child spans cover.
  Json summary() const {
    std::lock_guard lock(mutex_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(
            static_cast<int>(i));
      }
    }
    struct Totals {
      long long count = 0;
      double total_ms = 0.0;
      double self_ms = 0.0;
    };
    std::map<std::string, Totals> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
      for (int c : children[i]) {
        const SpanRecord& child = spans_[static_cast<std::size_t>(c)];
        const std::uint64_t lo = std::max(child.start, span.start);
        const std::uint64_t hi = std::min(child.end, span.end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
      std::sort(covered.begin(), covered.end());
      std::uint64_t union_ns = 0;
      std::uint64_t reach = span.start;
      for (const auto& [lo, hi] : covered) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) {
          union_ns += hi - from;
          reach = hi;
        }
      }
      Totals& totals = by_name[span.name];
      ++totals.count;
      totals.total_ms += ms_between(span.start, span.end);
      totals.self_ms += static_cast<double>(span.end - span.start - union_ns) / 1e6;
    }
    Json out = Json::object();
    for (const auto& [name, totals] : by_name) {
      out.set(name, Json::object()
                        .set("count", Json::integer(totals.count))
                        .set("total_ms", Json::number(totals.total_ms))
                        .set("self_ms", Json::number(totals.self_ms)));
    }
    return out;
  }

  /// Chrome trace-event JSON; args carry the span id, parent and request.
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    std::lock_guard lock(mutex_);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":" << Json::string(span.name).dump()
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(span.start) / 1e3
          << ",\"dur\":" << static_cast<double>(span.end - span.start) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << "}}";
    }
    out << "]}\n";
  }

 private:
  const bool on_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Aggregate jiffies of all CPUs from /proc/stat.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTimes times;
  double field = 0.0;
  for (int i = 0; i < 10 && (stat >> field); ++i) {
    times.total += field;
    if (i == 7) times.steal = field;
  }
  return times;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  return ratio(after.steal - before.steal, after.total - before.total);
}

// --- host drift -------------------------------------------------------------
// On a shared host the machine's speed drifts by 10-25% within and between
// runs: neighbours contend for the memory system, and the hypervisor takes
// the vCPUs away for a varying share of the time (CPU steal, 0-20%). Time
// metrics are divided by a drift factor that no psga code can move:
//  - In-process work is single-threaded. A fixed kernel, compiled into the
//    benchmark and never into psga, runs a short burst on the same thread
//    after every solve and every session; its slowdown against the nominal
//    burst time (contention and steal alike) divides that solve's time and
//    that session's event latencies.
//  - The daemon's threads never pause, so the kernel runs on its own thread
//    at a low duty cycle beside them and is timed by its thread CPU time
//    (waits for the daemon's threads do not count, so the daemon's own load
//    cannot move it); the time the host took is the steal share of all
//    CPUs. The factor is the kernel's CPU-time slowdown / (1 - steal share),
//    with the steal share taken per tenth of the job list for throughput
//    and per session for its events.
// Throughput is then the median over solves or tenths of the job list, so a
// burst of host noise moves only the samples it hit.

class Reference {
 public:
  /// Median burst on the 4-vCPU host the benchmark was calibrated on.
  static constexpr double kNominalBurstSeconds = 0.004;

  /// Runs one burst; returns its slowdown against the nominal time.
  double burst() {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = thread_cpu_ns();
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int rep = 0; rep < 16; ++rep) {
      std::vector<std::uint32_t> keys(4096);
      for (std::uint32_t& key : keys) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        key = static_cast<std::uint32_t>(state >> 33);
      }
      std::sort(keys.begin(), keys.end());
      checksum_ += keys[keys.size() / 2];
    }
    const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
    cpu_seconds_ += static_cast<double>(thread_cpu_ns() - c0) / 1e9;
    seconds_ += seconds;
    ++bursts_;
    return seconds / kNominalBurstSeconds;
  }

  /// Measured over nominal burst time (1 = the calibration host's speed).
  double slowdown() const {
    return bursts_ == 0 ? 1.0 : seconds_ / (bursts_ * kNominalBurstSeconds);
  }

  /// The same on the bursts' thread CPU time: the vCPU's speed while it
  /// ran, without steal or waits for other threads.
  double cpu_slowdown() const {
    return bursts_ == 0 ? 1.0 : cpu_seconds_ / (bursts_ * kNominalBurstSeconds);
  }

 private:
  double seconds_ = 0.0;
  double cpu_seconds_ = 0.0;
  int bursts_ = 0;
  std::uint64_t checksum_ = 0;  ///< keeps the kernel from being optimized out
};

// --- results ----------------------------------------------------------------

/// What one pass over a workload's fixed work list produced.
struct Pass {
  long long attempted = 0;
  long long failed = 0;
  std::string digest_text;  ///< deterministic per-operation record
  double wall_s = 0.0;      ///< whole timed phase

  // The run list (in-process solves or daemon jobs).
  long long runs = 0;
  double runs_s = 0.0;  ///< sum of per-run wall (checks excluded)
  /// Drift-corrected runs per second: one sample per solve, or per tenth
  /// of the job list.
  std::vector<double> runs_per_s;
  long long generations = 0;
  long long evaluations = 0;
  long long decoded = 0;
  // In-process engine metrics (RunResult::metrics).
  double generation_ns = 0.0;
  double decode_ns = 0.0;
  double step_decode_ns = 0.0;  ///< the part of decode_ns inside steps
  // Daemon jobs.
  std::vector<double> job_client_ms;
  long long cache_hits = 0;
  long long cache_lookups = 0;
  long long cache_evictions = 0;

  // Session events.
  std::vector<double> event_ms;       ///< wall clock
  std::vector<double> fair_event_ms;  ///< drift-corrected
  double replan_ms = 0.0;
  long long adopted = 0;
  long long event_evaluations = 0;
  long long carried = 0;

  Reference reference;  ///< bursts between the operations, or beside the daemon
  double steal_share = 0.0;  ///< all CPUs, over the timed phase

  void fail(const std::string& what) {
    ++failed;
    std::cerr << "psga_e2e: check failed: " << what << "\n";
  }
};

class Metrics {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    json_.set(name, Json::object()
                        .set("value", Json::number(value))
                        .set("unit", Json::string(unit)));
  }
  const Json& json() const { return json_; }

 private:
  Json json_ = Json::object();
};

// --- shared session part ----------------------------------------------------
// Every workload replays the same seeded session traces on ft10, in-process
// on the in-process workloads and through psgad on serve-mixed, so
// event_p50_ms/event_p90_ms mean one thing everywhere and the difference
// between the two is the service's cost.

constexpr const char* kSessionSolver = "engine=simple pop=64";
constexpr int kReplanGenerations = 40;
// Far above any replan's p90: a miss would cut the replan short and change
// the transcript, so it must never fire.
constexpr double kSessionSlo = 2.0;

struct Sizes {
  int runs = 0;           ///< solves or jobs
  int run_generations = 0;
  int sessions = 0;
  int events = 0;         ///< per session
};

void check_event(Pass& pass, double best, double baseline, bool slo_met,
                 const std::string& where) {
  if (!(best <= baseline)) pass.fail(where + ": best > baseline");
  if (!slo_met) pass.fail(where + ": SLO miss");
}

void replay_sessions_in_process(const Sizes& sizes, std::uint64_t seed,
                                const psga::sched::JobShopInstance& inst,
                                Ledger& ledger, Pass& pass) {
  const int phase = ledger.begin("sessions", -1, 0);
  for (int k = 0; k < sizes.sessions; ++k) {
    session::SessionConfig config;
    config.solver = kSessionSolver;
    config.replan_generations = kReplanGenerations;
    config.slo_seconds = kSessionSlo;
    config.seed = op_seed(seed, k, 2);
    session::Session live(inst, config, k + 1);
    live.open();
    const std::vector<session::Event> trace =
        session::random_trace(inst, sizes.events, op_seed(seed, k, 3));
    for (std::size_t j = 0; j < trace.size(); ++j) {
      const long long request = k * 1000LL + static_cast<long long>(j);
      ++pass.attempted;
      const int span = ledger.begin("Session::apply", phase, request);
      const std::uint64_t t0 = now_ns();
      const session::EventReply reply = live.apply(trace[j]);
      const std::uint64_t t1 = now_ns();
      ledger.end(span);
      ledger.add("session.replan",
                 t1 - static_cast<std::uint64_t>(reply.seconds * 1e9), t1,
                 span, request);
      pass.event_ms.push_back(ms_between(t0, t1));
      pass.replan_ms += reply.seconds * 1e3;
      pass.adopted += reply.adopted ? 1 : 0;
      pass.event_evaluations += reply.evaluations;
      pass.carried += static_cast<long long>(reply.carried);
      check_event(pass, reply.best, reply.baseline, reply.slo_met,
                  "session " + std::to_string(k) + " event " + std::to_string(j));
    }
    pass.digest_text += "t" + std::to_string(k) + ":" +
                        hex(live.transcript_hash()) + ";";
    const double drift = pass.reference.burst();
    for (std::size_t j = pass.fair_event_ms.size(); j < pass.event_ms.size(); ++j) {
      pass.fair_event_ms.push_back(pass.event_ms[j] / drift);
    }
  }
  ledger.end(phase);
}

// --- in-process workloads ---------------------------------------------------

/// Records Engine::init and Engine::step spans from the run loop's own
/// per-generation callback (fired after init() and after every step()).
class StepSpans final : public ga::RunObserver {
 public:
  StepSpans(Ledger& ledger, int parent, long long request)
      : ledger_(ledger), parent_(parent), request_(request), last_(now_ns()) {}

  bool on_generation(const ga::Engine&, const ga::GenerationEvent&) override {
    const std::uint64_t now = now_ns();
    ledger_.add(first_ ? "Engine::init" : "Engine::step", last_, now, parent_,
                request_);
    first_ = false;
    last_ = now;
    return true;
  }

 private:
  Ledger& ledger_;
  int parent_;
  long long request_;
  std::uint64_t last_;
  bool first_ = true;
};

double histogram_sum(const psga::obs::MetricsSnapshot& m, const char* name) {
  const psga::obs::HistogramSnapshot* h = m.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum);
}

double counter_value(const psga::obs::MetricsSnapshot& m, const char* name) {
  const std::uint64_t* c = m.counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(*c);
}

class InProcess {
 public:
  InProcess(std::string spec, int population, int probe_lanes, Sizes sizes,
            std::uint64_t seed)
      : spec_(std::move(spec)),
        population_(population),
        probe_lanes_(probe_lanes),
        sizes_(sizes),
        seed_(seed) {}

  /// Instance resolution and a warm-up solve + event.
  void setup() {
    check_problem_ = ga::RunSpec::parse(spec_).problem.build();
    ft10_ = ga::resolve_job_shop_instance("ft10");
    ga::Solver warm = ga::Solver::build(ga::RunSpec::parse(spec_ + " seed=1"));
    warm.run(ga::StopCondition::generations(
        std::max(2, sizes_.run_generations / 10)));
    session::SessionConfig config;
    config.solver = kSessionSolver;
    config.replan_generations = kReplanGenerations;
    session::Session live(ft10_, config);
    live.open();
    live.apply(session::random_trace(ft10_, 1, 1).front());
  }

  Pass run(Ledger& ledger) {
    Pass pass;
    const std::uint64_t phase_start = now_ns();
    const int list = ledger.begin("solves", -1, 0);
    for (int i = 0; i < sizes_.runs; ++i) {
      const std::string text =
          spec_ + " seed=" + std::to_string(op_seed(seed_, i, 1));
      ++pass.attempted;
      const int solve = ledger.begin("solve", list, i);
      const std::uint64_t t0 = now_ns();
      const int build = ledger.begin("Solver::build", solve, i);
      ga::Solver solver = ga::Solver::build(ga::RunSpec::parse(text));
      ledger.end(build);
      const int run = ledger.begin("Solver::run", solve, i);
      StepSpans steps(ledger, run, i);
      if (ledger.on()) solver.set_observer(&steps);
      const ga::RunResult result =
          solver.run(ga::StopCondition::generations(sizes_.run_generations));
      ledger.end(run);
      const std::uint64_t t1 = now_ns();
      ledger.end(solve);
      pass.runs_s += static_cast<double>(t1 - t0) / 1e9;
      ++pass.runs;

      if (check_problem_->objective(result.best) != result.best_objective) {
        pass.fail("solve " + std::to_string(i) + ": re-scored best differs");
      }
      if (result.generations != sizes_.run_generations) {
        pass.fail("solve " + std::to_string(i) + ": generation count");
      }
      pass.generations += result.generations;
      pass.evaluations += result.evaluations;
      if (result.metrics) {
        const double decoded = counter_value(*result.metrics, "eval.decoded_genomes");
        const double decode_ns = histogram_sum(*result.metrics, "eval.decode_ns");
        pass.decoded += static_cast<long long>(decoded);
        pass.generation_ns += histogram_sum(*result.metrics, "engine.generation_ns");
        pass.decode_ns += decode_ns;
        // init() decodes one population outside any step; every decode
        // costs about the same, so steps get the rest pro rata.
        const double in_steps = std::max(0.0, decoded - population_);
        pass.step_decode_ns += decode_ns * ratio(in_steps, decoded);
      }
      char line[96];
      std::snprintf(line, sizeof line, "s%d:%.17g:%lld;", i,
                    result.best_objective, result.evaluations);
      pass.digest_text += line;
      if (i + 1 == sizes_.runs) last_population_ = solver.engine().population_snapshot().genomes;
      const double drift = pass.reference.burst();
      pass.runs_per_s.push_back(1e9 * drift / static_cast<double>(t1 - t0));
    }
    ledger.end(list);
    replay_sessions_in_process(sizes_, seed_, ft10_, ledger, pass);
    pass.wall_s = static_cast<double>(now_ns() - phase_start) / 1e9;
    return pass;
  }

  /// Traced only: the fork-join layer on a 2-lane pool against the serial
  /// evaluator, on the last solve's final population. The timed solves run
  /// serially: on a shared host the two lanes often run one after the
  /// other, so the pool's speed-up changes from run to run (255-439 gens/s
  /// across five runs of the same code), more than any bound can absorb.
  void probe(Ledger& ledger, Metrics& metrics) {
    if (probe_lanes_ == 0 || last_population_.empty()) {
      metrics.put("pool.wake_us", 0.0, "us");
      metrics.put("pool.imbalance", 0.0, "ratio");
      metrics.put("pool.speedup", 0.0, "x");
      return;
    }
    par::ThreadPool pool(probe_lanes_);
    const std::vector<ga::Genome>& batch = last_population_;
    std::vector<double> out(batch.size());
    ga::Evaluator serial(check_problem_, ga::EvalBackend::kSerial);
    ga::Evaluator pooled(check_problem_, ga::EvalBackend::kThreadPool, &pool);
    constexpr int kRepeats = 40;
    std::vector<double> serial_ms;
    std::vector<double> pooled_ms;
    std::vector<double> wake_us;
    std::vector<double> imbalance;
    const int probe = ledger.begin("pool.probe", -1, 0);
    for (int r = 0; r < kRepeats; ++r) {
      for (int side = 0; side < 2; ++side) {
        ga::Evaluator& evaluator = ((r + side) % 2 == 0) ? serial : pooled;
        const int span = ledger.begin("Evaluator::evaluate", probe, r);
        const std::uint64_t t0 = now_ns();
        evaluator.evaluate(batch, out);
        const double ms = ms_between(t0, now_ns());
        ledger.end(span);
        (&evaluator == &serial ? serial_ms : pooled_ms).push_back(ms);
      }
      const std::size_t lanes = static_cast<std::size_t>(pool.thread_count());
      std::vector<std::uint64_t> start(lanes, 0);
      std::vector<std::uint64_t> stop(lanes, 0);
      const int fork = ledger.begin("ThreadPool::parallel_lanes", probe, r);
      const std::uint64_t entry = now_ns();
      pool.parallel_lanes(batch.size(), [&](std::size_t lane, std::size_t begin,
                                               std::size_t end) {
        start[lane] = now_ns();
        for (std::size_t g = begin; g < end; ++g) {
          out[g] = check_problem_->objective(batch[g]);
        }
        stop[lane] = now_ns();
      });
      ledger.end(fork);
      double sum = 0.0;
      double worst = 0.0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ledger.add("pool.lane", start[lane], stop[lane], fork, r);
        if (lane > 0) wake_us.push_back(static_cast<double>(start[lane] - entry) / 1e3);
        const double finish = static_cast<double>(stop[lane] - entry);
        sum += finish;
        worst = std::max(worst, finish);
      }
      imbalance.push_back(ratio(worst, sum / static_cast<double>(lanes)) - 1.0);
    }
    ledger.end(probe);
    metrics.put("pool.wake_us", median(wake_us), "us");
    metrics.put("pool.imbalance", median(imbalance), "ratio");
    metrics.put("pool.speedup", ratio(median(serial_ms), median(pooled_ms)), "x");
  }

 private:
  std::string spec_;
  int population_;
  int probe_lanes_;
  Sizes sizes_;
  std::uint64_t seed_;
  ga::ProblemPtr check_problem_;
  psga::sched::JobShopInstance ft10_;
  std::vector<ga::Genome> last_population_;
};

// --- serve-mixed ------------------------------------------------------------

/// Keeps every telemetry line dispatch_sweep writes (traced only: the
/// serialized lines feed the exp::Json::parse probe).
class LineSink final : public exp::TelemetrySink {
 public:
  std::vector<std::string> take() {
    std::lock_guard lock(mutex_);
    return std::move(lines_);
  }

 protected:
  void emit(const std::string& text) override {
    std::lock_guard lock(mutex_);
    lines_.push_back(text);
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

double stats_histogram(const Json& stats, const char* name, const char* field) {
  const Json* metrics = stats.find("metrics");
  const Json* histograms = metrics ? metrics->find("histograms") : nullptr;
  const Json* h = histograms ? histograms->find(name) : nullptr;
  const Json* value = h ? h->find(field) : nullptr;
  return value ? value->as_number() : 0.0;
}

class ServeMixed {
 public:
  static constexpr const char* kJobBase =
      "problem=flowshop instance=gen:jobs=50,machines=10 engine=island "
      "islands=4 pop=32 eval_cache=lru:4096";

  ServeMixed(Sizes sizes, std::uint64_t seed) : sizes_(sizes), seed_(seed) {}

  ~ServeMixed() { teardown(); }

  void teardown() {
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
  }

  /// Daemon start, connects and a warm-up job + session.
  void setup() {
    ft10_ = ga::resolve_job_shop_instance("ft10");
    svc::ServerConfig config;
    config.socket_path = socket_dir() + "/e2e-" + std::to_string(getpid()) +
                         "-" + std::to_string(++setups_) + ".sock";
    config.workers = 2;
    config.session_workers = 1;
    // Improvements and job_end only: every streamed line wakes a daemon
    // connection thread and a client thread, and one line per generation
    // made job throughput spread by 20% between runs on a shared host.
    config.telemetry_every = 0;
    server_ = std::make_unique<svc::Server>(config);
    server_->start();
    client_ = std::make_unique<svc::Client>(config.socket_path);
    const std::string build_type = client_->info().string_or("build_type", "");
    if (build_type != "Release") {
      throw std::runtime_error("psgad reports build_type '" + build_type +
                               "'; only Release builds are measured");
    }
    svc::SubmitOptions warm;
    warm.generations = 5;
    client_->watch(client_->submit(std::string(kJobBase) + " seed=1", warm));
    const long long id = client_->session_open("ft10", session_options(1));
    client_->session_event(id, session::random_trace(ft10_, 1, 1).front().to_json());
    client_->session_close(id);
  }

  Pass run(Ledger& ledger, LineSink* sink) {
    Pass pass;
    exp::SweepSpec sweep;
    sweep.name = "serve-mixed";
    sweep.base = kJobBase;
    sweep.reps = sizes_.runs;
    sweep.seed = op_seed(seed_, 0, 4);
    sweep.stop = ga::StopCondition::generations(sizes_.run_generations);

    const Json before = client_->stats();
    const std::uint64_t phase_start = now_ns();
    const int phase = ledger.begin("serve", -1, 0);
    const CpuTimes cpu_before = read_cpu_times();
    std::atomic<bool> done{false};
    std::thread reference([&] {
      while (!done.load()) {
        pass.reference.burst();
        std::this_thread::sleep_for(std::chrono::milliseconds(36));
      }
    });
    Pass session_pass;
    std::string session_error;
    std::thread sessions([&] {
      try {
        replay_sessions(ledger, phase, session_pass);
      } catch (const std::exception& e) {
        session_error = e.what();
      }
    });

    svc::DispatchOptions options;
    options.jobs = 2;
    options.telemetry = sink;
    const int list = ledger.begin("dispatch_sweep", phase, 0);
    const int window = std::max(1, sizes_.runs / 10);
    std::uint64_t window_start = now_ns();
    CpuTimes window_cpu = read_cpu_times();
    std::vector<std::pair<int, std::uint64_t>> job_spans(
        static_cast<std::size_t>(sizes_.runs), {-1, 0});
    options.progress = [&](const exp::CellResult& cell, int done, int) {
      const std::uint64_t end = now_ns();
      job_spans[static_cast<std::size_t>(cell.cell.index)] = {
          ledger.add("job", end - static_cast<std::uint64_t>(cell.seconds * 1e9),
                     end, list, cell.cell.index),
          end};
      if (done % window == 0) {
        const CpuTimes cpu = read_cpu_times();
        const double seconds = static_cast<double>(end - window_start) / 1e9;
        pass.runs_per_s.push_back(window / seconds / (1.0 - steal_share(window_cpu, cpu)));
        window_start = end;
        window_cpu = cpu;
      }
    };
    const std::uint64_t t0 = now_ns();
    exp::SweepResult result;
    std::string sweep_error;
    try {
      result = svc::dispatch_sweep(sweep, server_->socket_path(), options);
    } catch (const std::exception& e) {
      sweep_error = e.what();
    }
    pass.runs_s = static_cast<double>(now_ns() - t0) / 1e9;
    ledger.end(list);
    sessions.join();
    done.store(true);
    reference.join();
    pass.steal_share = steal_share(cpu_before, read_cpu_times());
    ledger.end(phase);
    pass.wall_s = static_cast<double>(now_ns() - phase_start) / 1e9;
    if (!sweep_error.empty()) throw std::runtime_error("dispatch: " + sweep_error);
    if (!session_error.empty()) throw std::runtime_error("sessions: " + session_error);

    for (const exp::CellResult& cell : result.cells) {
      ++pass.attempted;
      ++pass.runs;
      const std::string where = "job " + std::to_string(cell.cell.index);
      if (!cell.ok) {
        pass.fail(where + ": " + cell.error);
        continue;
      }
      if (cell.result.generations != sizes_.run_generations) {
        pass.fail(where + ": generation count");
      }
      pass.generations += cell.result.generations;
      pass.evaluations += cell.result.evaluations;
      pass.job_client_ms.push_back(cell.seconds * 1e3);
      if (cell.result.cache) {
        pass.cache_hits += cell.result.cache->hits;
        pass.cache_lookups += cell.result.cache->hits + cell.result.cache->misses;
        pass.cache_evictions += cell.result.cache->evictions;
        pass.decoded += cell.result.cache->misses;
      }
      char line[96];
      std::snprintf(line, sizeof line, "j%d:%.17g:%lld;", cell.cell.index,
                    cell.result.best_objective, cell.result.evaluations);
      pass.digest_text += line;
    }
    pass.attempted += session_pass.attempted;
    pass.failed += session_pass.failed;
    pass.digest_text += session_pass.digest_text;
    pass.event_ms = std::move(session_pass.event_ms);
    pass.fair_event_ms = std::move(session_pass.fair_event_ms);
    const double speed = pass.reference.cpu_slowdown();
    for (double& rate : pass.runs_per_s) rate *= speed;
    for (double& ms : pass.fair_event_ms) ms /= speed;
    pass.replan_ms = session_pass.replan_ms;
    pass.adopted = session_pass.adopted;
    pass.event_evaluations = session_pass.event_evaluations;
    pass.carried = session_pass.carried;

    if (ledger.on()) split_jobs(ledger, result, job_spans);
    const Json after = client_->stats();
    const double queued = stats_histogram(after, "svc.job.queue_ns", "count") -
                          stats_histogram(before, "svc.job.queue_ns", "count");
    queue_ms_ = ratio(stats_histogram(after, "svc.job.queue_ns", "sum") -
                          stats_histogram(before, "svc.job.queue_ns", "sum"),
                      queued) / 1e6;
    run_ms_ = ratio(stats_histogram(after, "svc.job.run_ns", "sum") -
                        stats_histogram(before, "svc.job.run_ns", "sum"),
                    queued) / 1e6;
    return pass;
  }

  /// Traced only: Client submit/watch spans on a few extra jobs (the
  /// sweep's own connections are inside dispatch_sweep) and the
  /// exp::Json::parse cost of the sweep's telemetry lines.
  void probe(Ledger& ledger, Metrics& metrics, const std::vector<std::string>& lines) {
    const int probe = ledger.begin("client.probe", -1, 0);
    for (int i = 0; i < 4; ++i) {
      svc::SubmitOptions options;
      options.generations = sizes_.run_generations;
      const int job = ledger.begin("probe.job", probe, i);
      int span = ledger.begin("Client::submit", job, i);
      const long long id = client_->submit(
          std::string(kJobBase) + " seed=" + std::to_string(op_seed(seed_, i, 5)),
          options);
      ledger.end(span);
      span = ledger.begin("Client::watch", job, i);
      client_->watch(id);
      ledger.end(span);
      ledger.end(job);
    }
    ledger.end(probe);

    const int parse = ledger.begin("exp::Json::parse", -1, 0);
    const std::uint64_t t0 = now_ns();
    std::size_t parsed = 0;
    for (const std::string& line : lines) parsed += Json::parse(line).is_object() ? 1 : 0;
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    ledger.end(parse);
    metrics.put("json.parse_us_per_line", ratio(us, static_cast<double>(parsed)), "us");
    // One sweep_begin line; every other line belongs to a job.
    metrics.put("svc.log_lines_per_job",
                ratio(static_cast<double>(lines.empty() ? 0 : lines.size() - 1),
                      static_cast<double>(sizes_.runs)),
                "count");
  }

  /// Traced only: hangs each job's server-side run (its JobRecord
  /// `seconds`) under the job's client-observed span, so the job span's
  /// self time is the service's overhead for that job.
  void split_jobs(Ledger& ledger, const exp::SweepResult& result,
                  const std::vector<std::pair<int, std::uint64_t>>& spans) {
    std::map<std::string, double> run_s;  // later passes overwrite earlier
    for (const svc::JobRecord& job : client_->list()) run_s[job.spec] = job.seconds;
    for (const exp::CellResult& cell : result.cells) {
      const auto [span, end] = spans[static_cast<std::size_t>(cell.cell.index)];
      const auto it =
          run_s.find(ga::RunSpec::parse(svc::cell_runspec(cell.cell)).to_string());
      if (span < 0 || it == run_s.end()) continue;
      ledger.add("job.run", end - static_cast<std::uint64_t>(it->second * 1e9), end,
                 span, cell.cell.index);
    }
  }

  double queue_ms() const { return queue_ms_; }
  double run_ms() const { return run_ms_; }

 private:
  static std::string socket_dir() {
    // Relative, so the path fits sockaddr_un wherever the checkout lives.
    return ".bench_build";
  }

  svc::SessionOptions session_options(std::uint64_t seed) const {
    svc::SessionOptions options;
    options.solver = kSessionSolver;
    options.generations = kReplanGenerations;
    options.slo_seconds = kSessionSlo;
    options.seed = seed;
    return options;
  }

  void replay_sessions(Ledger& ledger, int parent, Pass& pass) {
    const int phase = ledger.begin("sessions", parent, 0);
    for (int k = 0; k < sizes_.sessions; ++k) {
      const CpuTimes session_cpu = read_cpu_times();
      const std::size_t first_event = pass.event_ms.size();
      const long long id =
          client_->session_open("ft10", session_options(op_seed(seed_, k, 2)));
      const std::vector<session::Event> trace =
          session::random_trace(ft10_, sizes_.events, op_seed(seed_, k, 3));
      for (std::size_t j = 0; j < trace.size(); ++j) {
        const long long request = k * 1000LL + static_cast<long long>(j);
        const Json fields = trace[j].to_json();
        ++pass.attempted;
        const int span = ledger.begin("Client::session_event", phase, request);
        const std::uint64_t t0 = now_ns();
        const Json reply = client_->session_event(id, fields);
        const std::uint64_t t1 = now_ns();
        ledger.end(span);
        const double seconds = reply.number_or("seconds", 0.0);
        ledger.add("session.replan", t1 - static_cast<std::uint64_t>(seconds * 1e9),
                   t1, span, request);
        pass.event_ms.push_back(ms_between(t0, t1));
        pass.replan_ms += seconds * 1e3;
        const Json* adopted = reply.find("adopted");
        pass.adopted += (adopted != nullptr && adopted->as_bool()) ? 1 : 0;
        pass.event_evaluations +=
            static_cast<long long>(reply.number_or("evaluations", 0.0));
        pass.carried += static_cast<long long>(reply.number_or("carried", 0.0));
        const Json* slo = reply.find("slo_met");
        check_event(pass, reply.number_or("best", 0.0),
                    reply.number_or("baseline", -1.0),
                    slo == nullptr || slo->as_bool(),
                    "session " + std::to_string(k) + " event " + std::to_string(j));
      }
      const Json closed = client_->session_close(id);
      const double free_share = 1.0 - steal_share(session_cpu, read_cpu_times());
      for (std::size_t j = first_event; j < pass.event_ms.size(); ++j) {
        pass.fair_event_ms.push_back(pass.event_ms[j] * free_share);
      }
      const Json* hash = closed.find("transcript_hash");
      pass.digest_text += "t" + std::to_string(k) + ":" +
                          hex(hash != nullptr ? hash->as_u64() : 0) + ";";
    }
    ledger.end(phase);
  }

  Sizes sizes_;
  std::uint64_t seed_;
  int setups_ = 0;
  psga::sched::JobShopInstance ft10_;
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::Client> client_;
  double queue_ms_ = 0.0;
  double run_ms_ = 0.0;
};

// --- entry point ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

/// Fixed work per second of --seconds, measured on a 4-vCPU host at the
/// commit that introduced the benchmark. Only the list lengths scale.
Sizes sizes_for(const std::string& workload, double seconds, bool smoke) {
  auto scaled = [&](double per_second) {
    return std::max(1, static_cast<int>(std::lround(per_second * seconds)));
  };
  Sizes sizes;
  if (workload == "ft10-breed") {
    sizes = {scaled(6.0), 300, scaled(3.0), 16};
  } else if (workload == "ft10-gt") {
    sizes = {scaled(1.8), 60, scaled(3.0), 16};
  } else if (workload == "serve-mixed") {
    sizes = {scaled(85.0), 75, scaled(3.0), 16};
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (ft10-breed, ft10-gt, serve-mixed)");
  }
  if (smoke) {
    sizes.runs = 2;
    sizes.run_generations = 5;
    sizes.sessions = 1;
    sizes.events = 3;
  }
  return sizes;
}

double read_loadavg() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void put_layers(Metrics& m, const Pass& pass, const Ledger& ledger) {
  // Breed is what a step spends outside decode: selection, crossover,
  // mutation, replacement (the engines evaluate synchronously here).
  const double gens = static_cast<double>(pass.generations);
  const double breed_ns = std::max(0.0, pass.generation_ns - pass.step_decode_ns);
  m.put("breed.us_per_gen", ratio(breed_ns, gens) / 1e3, "us");
  m.put("breed.share", ratio(breed_ns, pass.generation_ns), "ratio");
  m.put("decode.ns_per_genome",
        ratio(pass.decode_ns, static_cast<double>(pass.decoded)), "ns");
  m.put("decode.share", ratio(pass.step_decode_ns, pass.generation_ns), "ratio");

  const Json spans = ledger.summary();
  auto mean_us = [&](const char* name) {
    const Json* s = spans.find(name);
    if (s == nullptr) return 0.0;
    return ratio(s->number_or("total_ms", 0.0), s->number_or("count", 0.0)) * 1e3;
  };
  m.put("solver.build_us", mean_us("Solver::build"), "us");
  m.put("engine.init_us", mean_us("Engine::init"), "us");
  m.put("engine.step_us", mean_us("Engine::step"), "us");

  const double jobs = static_cast<double>(pass.job_client_ms.size());
  m.put("cache.hit_ratio",
        ratio(static_cast<double>(pass.cache_hits),
              static_cast<double>(pass.cache_lookups)),
        "ratio");
  m.put("cache.evictions_per_job",
        ratio(static_cast<double>(pass.cache_evictions), jobs), "count");
  m.put("cache.decodes_saved_per_job",
        ratio(static_cast<double>(pass.cache_hits), jobs), "count");

  const double events = static_cast<double>(pass.event_ms.size());
  double event_total = 0.0;
  for (double ms : pass.event_ms) event_total += ms;
  m.put("session.replan_ms", ratio(pass.replan_ms, events), "ms");
  m.put("session.overhead_ms", ratio(event_total - pass.replan_ms, events), "ms");
  m.put("session.adopted_ratio", ratio(static_cast<double>(pass.adopted), events),
        "ratio");
  m.put("session.evals_per_event",
        ratio(static_cast<double>(pass.event_evaluations), events), "count");

  m.put("generations", gens, "count");
  m.put("evaluations", static_cast<double>(pass.evaluations), "count");
  m.put("decoded_genomes", static_cast<double>(pass.decoded), "count");
  m.put("cache.hits", static_cast<double>(pass.cache_hits), "count");
  m.put("session.carried", static_cast<double>(pass.carried), "count");
}

Json run_context(const CpuTimes& before, const CpuTimes& after,
                 double load_before, double load_after) {
  return Json::object()
      .set("nproc", Json::integer(std::thread::hardware_concurrency()))
      .set("build_type", Json::string(PSGA_E2E_BUILD_TYPE))
      .set("compiler", Json::string(__VERSION__))
      .set("steal_share", Json::number(steal_share(before, after)))
      .set("loadavg_start", Json::number(load_before))
      .set("loadavg_end", Json::number(load_after));
}

int run(const Options& options) {
  if (std::string(PSGA_E2E_BUILD_TYPE) != "Release") {
    std::cerr << "psga_e2e: built as '" << PSGA_E2E_BUILD_TYPE
              << "'; only Release builds are measured\n";
    return 3;
  }
  const Sizes sizes = sizes_for(options.workload, options.seconds, options.smoke);
  const bool serve = options.workload == "serve-mixed";
  std::unique_ptr<InProcess> in_process;
  std::unique_ptr<ServeMixed> daemon;
  if (options.workload == "ft10-breed") {
    in_process = std::make_unique<InProcess>(
        "problem=jobshop instance=ft10 decoder=semi-active engine=simple "
        "pop=100 eval=serial",
        100, 0, sizes, options.seed);
  } else if (options.workload == "ft10-gt") {
    in_process = std::make_unique<InProcess>(
        "problem=jobshop instance=ft10 decoder=active engine=simple pop=256 "
        "eval=serial",
        256, 2, sizes, options.seed);
  } else {
    daemon = std::make_unique<ServeMixed>(sizes, options.seed);
  }

  // Set-up is too short to time once: repeat it and keep the median; the
  // last repetition's daemon serves the timed phase.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (serve) daemon->teardown();
    const std::uint64_t t0 = now_ns();
    if (serve) {
      daemon->setup();
    } else {
      in_process->setup();
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const CpuTimes cpu_before = read_cpu_times();
  const double load_before = read_loadavg();
  Metrics metrics;
  long long attempted = 0;
  long long failed = 0;
  std::string digest;
  Json ledger_json = Json::null();
  double drift = 1.0;
  Json wall = Json::object();

  auto one_pass = [&](Ledger& ledger, LineSink* sink) {
    Pass pass = serve ? daemon->run(ledger, sink) : in_process->run(ledger);
    attempted += pass.attempted;
    failed += pass.failed;
    return pass;
  };

  if (!options.trace) {
    Ledger off(false);
    const Pass pass = one_pass(off, nullptr);
    digest = hex(session::fnv1a(pass.digest_text));
    drift = serve ? pass.reference.cpu_slowdown() / (1.0 - pass.steal_share)
                  : pass.reference.slowdown();
    const double gens = static_cast<double>(pass.generations);
    const double runs = static_cast<double>(pass.runs);
    const double p50 = quantile(pass.event_ms, 0.5);
    const double p90 = quantile(pass.event_ms, 0.9);
    wall = Json::object()
               .set("gens_per_s", Json::number(ratio(gens, pass.runs_s)))
               .set("jobs_per_s", Json::number(ratio(runs, pass.runs_s)))
               .set("event_p50_ms", Json::number(p50))
               .set("event_p90_ms", Json::number(p90))
               .set("setup_s", Json::number(median(setup_s)))
               .set("events", Json::integer(static_cast<long long>(pass.event_ms.size())));
    const double runs_per_s = median(pass.runs_per_s);
    metrics.put("gens_per_s", runs_per_s * sizes.run_generations, "1/s");
    metrics.put("jobs_per_s", runs_per_s, "1/s");
    metrics.put("event_p50_ms", quantile(pass.fair_event_ms, 0.5), "ms");
    metrics.put("event_p90_ms", quantile(pass.fair_event_ms, 0.9), "ms");
    metrics.put("setup_s", median(setup_s) / drift, "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Ledger off(false);
    const Pass plain = one_pass(off, nullptr);
    Ledger ledger(true);
    LineSink sink;
    const Pass traced = one_pass(ledger, serve ? &sink : nullptr);
    digest = hex(session::fnv1a(traced.digest_text));
    drift = serve ? traced.reference.cpu_slowdown() / (1.0 - traced.steal_share)
                  : traced.reference.slowdown();
    if (traced.digest_text != plain.digest_text) {
      ++failed;
      std::cerr << "psga_e2e: traced and untraced passes did different work\n";
    }
    put_layers(metrics, traced, ledger);
    if (serve) {
      daemon->probe(ledger, metrics, sink.take());
      double client_total = 0.0;
      for (double ms : traced.job_client_ms) client_total += ms;
      const double jobs = static_cast<double>(traced.job_client_ms.size());
      metrics.put("job.run_ms", daemon->run_ms(), "ms");
      metrics.put("job.overhead_ms", ratio(client_total, jobs) - daemon->run_ms(), "ms");
      metrics.put("svc.queue_ms", daemon->queue_ms(), "ms");
      metrics.put("pool.wake_us", 0.0, "us");
      metrics.put("pool.imbalance", 0.0, "ratio");
      metrics.put("pool.speedup", 0.0, "x");
    } else {
      in_process->probe(ledger, metrics);
      metrics.put("job.run_ms", 0.0, "ms");
      metrics.put("job.overhead_ms", 0.0, "ms");
      metrics.put("svc.queue_ms", 0.0, "ms");
      metrics.put("svc.log_lines_per_job", 0.0, "count");
      metrics.put("json.parse_us_per_line", 0.0, "us");
    }
    metrics.put("trace.overhead_share", ratio(traced.wall_s - plain.wall_s, plain.wall_s),
                "ratio");
    ledger_json = Json::object()
                      .set("untraced_s", Json::number(plain.wall_s))
                      .set("traced_s", Json::number(traced.wall_s))
                      .set("spans", ledger.summary());
    if (!options.trace_out.empty()) ledger.write_chrome(options.trace_out);
  }
  const CpuTimes cpu_after = read_cpu_times();

  std::cout << Json::object()
                   .set("context", run_context(cpu_before, cpu_after, load_before,
                                               read_loadavg())
                                       .set("drift", Json::number(drift))
                                       .set("wall", wall)
                                       .set("workload", Json::string(options.workload))
                                       .set("seed", Json::uinteger(options.seed))
                                       .set("runs", Json::integer(sizes.runs))
                                       .set("sessions", Json::integer(sizes.sessions)))
                   .dump()
            << "\n";
  std::cout << Json::object().set("digest", Json::string(digest)).dump() << "\n";
  if (options.trace) std::cout << Json::object().set("ledger", ledger_json).dump() << "\n";
  std::cout << Json::object()
                   .set("correct", Json::boolean(failed == 0))
                   .set("attempted", Json::integer(attempted))
                   .set("failed", Json::integer(failed))
                   .set("metrics", metrics.json())
                   .dump()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "psga_e2e: " << e.what() << "\n";
    return 2;
  }
}
