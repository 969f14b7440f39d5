// Online replanning sessions — the serving-side face of the dynamic
// scheduling model (Section II, Tang et al. [9]). A Session owns a live
// job-shop instance plus the GA population from its last solve and
// answers a stream of disruption events (job arrival, machine breakdown,
// due-date change) by
//   1. rebasing the instance: the event mutates the instance/downtime
//      state, then sched::split_at freezes the already-dispatched prefix
//      of the current plan (the same freeze rule simulate_dynamic uses);
//   2. warm-starting: the previous population is repaired into the new
//      suffix genome space (keep-feasible-prefix repair) and injected
//      through Engine::seed_population, topped up with fresh immigrants;
//   3. re-solving the suffix under a deterministic per-event budget with
//      the wall-clock SLO as a safety cap.
//
// Anytime invariant: the session always holds a legal full plan. The
// event's baseline (the current plan right-shifted into the new state) is
// computed *before* the solve, and the solved suffix is adopted only when
// it is at least as good — so best_objective() never regresses past what
// right-shift repair guarantees, even if the solver is stopped early.
//
// Determinism: every replan uses a generation/evaluation budget and a
// per-event seed derived from (session seed, event index); the transcript
// records only deterministic fields (no timing), so the same event trace
// and seed produce a bit-identical transcript in-process and through
// psgad. Wall-clock SLO caps are a safety net — when a budget fits its
// SLO (the operating point the bench gate pins), they never fire and
// determinism is exact.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exp/json.h"
#include "src/ga/genome.h"
#include "src/ga/solver.h"
#include "src/ga/stop.h"
#include "src/obs/metrics.h"
#include "src/par/rng.h"
#include "src/par/thread_pool.h"
#include "src/sched/dynamic.h"
#include "src/sched/job_shop.h"

namespace psga::session {

enum class EventKind {
  kArrival,    ///< a new job (its machine route) enters the shop
  kBreakdown,  ///< a machine is down for [time, time + duration)
  kDueDate,    ///< an existing job's due date changes
};

std::string to_string(EventKind kind);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
EventKind event_kind_from_string(const std::string& text);

/// One disruption. Which fields matter depends on `kind`:
///   kArrival   — route (required), due (optional)
///   kBreakdown — machine, duration
///   kDueDate   — job, due
struct Event {
  EventKind kind = EventKind::kBreakdown;
  sched::Time time = 0;  ///< disruption instant; non-decreasing per session

  std::vector<sched::JsOperation> route;  ///< kArrival: the new job's route
  sched::Time due = sched::JobAttributes::kNoDueDate;  ///< kArrival/kDueDate
  int machine = 0;                        ///< kBreakdown
  sched::Time duration = 0;               ///< kBreakdown: downtime length
  int job = -1;                           ///< kDueDate

  /// Parses the psgactl token format, e.g.
  ///   "kind=breakdown time=25 machine=2 duration=10"
  ///   "kind=arrival time=40 route=0:3,2:5,1:4 due=120"
  ///   "kind=due time=60 job=3 due=95"
  /// Throws std::invalid_argument naming the offending token.
  static Event parse(const std::string& text);
  std::string to_string() const;  ///< canonical tokens; parse round-trips

  /// Flat JSON members (kind/time/route/...), merged into protocol
  /// requests by the service layer.
  exp::Json to_json() const;
  static Event from_json(const exp::Json& json);
};

/// Population-transfer policy applied at each replan.
struct WarmStart {
  bool enabled = true;
  /// Fraction of the population left to the engine's own random
  /// initialization (fresh immigrants); the carried survivors fill
  /// (1 - immigrant_fraction) of the slots at most.
  double immigrant_fraction = 0.25;
  int max_carried = 0;  ///< extra cap on carried genomes; 0 = none
};

struct SessionConfig {
  /// SolverSpec tokens for the per-event engine; the per-event seed is
  /// overridden by the session.
  std::string solver = "engine=simple pop=64";
  /// Deterministic per-event budget (the primary stop).
  int replan_generations = 40;
  long long replan_evaluations = 0;  ///< 0 = no evaluation budget
  /// Per-event wall-clock SLO in seconds (0 = none). Folded into the
  /// replan StopCondition as a safety cap; EventReply::slo_met reports
  /// whether the event stayed inside it.
  double slo_seconds = 0.0;
  WarmStart warm;
  std::uint64_t seed = 1;
  obs::RegistryPtr metrics;  ///< session.* metrics land here (may be null)
};

/// What one event (or the opening solve) produced. All fields except
/// `seconds` and `slo_met` are deterministic and enter the transcript.
struct EventReply {
  long long session = 0;
  int index = 0;        ///< 0 = the opening solve, then 1, 2, ...
  std::string kind;     ///< "open" or the event kind
  sched::Time time = 0;
  std::size_t frozen = 0;     ///< genes frozen by split_at
  std::size_t remaining = 0;  ///< genes re-optimized
  std::size_t carried = 0;    ///< warm-start genomes injected
  double baseline = 0.0;  ///< right-shift repair objective (pre-solve)
  double best = 0.0;      ///< adopted objective (<= baseline)
  bool adopted = false;   ///< solver beat (or matched) the baseline
  int generations = 0;
  long long evaluations = 0;
  std::uint64_t plan_hash = 0;  ///< genome_hash of the full plan sequence

  double seconds = 0.0;  ///< wall clock of the replan (NOT in transcript)
  bool slo_met = true;

  /// One transcript/protocol line. `include_timing` adds seconds/slo_met
  /// (protocol replies); the transcript always omits them.
  exp::Json to_json(bool include_timing) const;
};

/// One online replanning session. Methods are internally locked: a replan
/// in flight does not block best_objective()/plan() readers for its whole
/// duration — they see the last committed answer.
class Session {
 public:
  Session(sched::JobShopInstance inst, SessionConfig config,
          long long id = 0);

  /// The opening solve (event index 0): optimizes the full operation
  /// multiset from scratch and establishes the first plan.
  EventReply open();

  /// Applies one event under the config's deterministic budget.
  EventReply apply(const Event& event);
  /// Same, with an explicit per-event stop (tests pin targets this way).
  EventReply apply(const Event& event, const ga::StopCondition& stop);

  /// Waits for the replan in flight, then seals the session: a later
  /// open() or apply() throws std::invalid_argument and changes nothing.
  /// The readers below keep working.
  void close();

  long long id() const { return id_; }
  double best_objective() const;
  /// The current full plan: frozen prefix + best known suffix.
  std::vector<int> plan() const;
  sched::Time now() const;
  int events() const;  ///< replies so far, including the opening solve
  std::uint64_t plan_hash() const;

  std::vector<EventReply> transcript() const;
  /// JSONL, one deterministic line per reply (timing excluded).
  std::string transcript_text() const;
  /// FNV-1a 64 over transcript_text() — the session identity the CI leg
  /// and the in-process-vs-daemon tests compare.
  std::uint64_t transcript_hash() const;

 private:
  /// Waits until no replan is in flight; throws once the session is
  /// closed.
  void wait_for_turn(std::unique_lock<std::mutex>& lock);
  EventReply replan_locked(const std::string& kind, sched::Time time,
                           const ga::StopCondition& stop,
                           std::unique_lock<std::mutex>& lock);
  /// Stamps plan hash + timing, records metrics, appends to the
  /// transcript. Caller holds the mutex.
  void finish_reply(EventReply& reply,
                    const std::chrono::steady_clock::time_point& start);
  ga::StopCondition default_stop() const;

  const long long id_;
  SessionConfig config_;
  ga::SolverSpec solver_spec_;  ///< parsed once from config_.solver

  mutable std::mutex mutex_;
  sched::JobShopInstance inst_;
  std::vector<sched::Downtime> downtimes_;
  std::vector<int> frozen_;
  std::vector<int> remaining_;  ///< best known suffix (current plan's tail)
  sched::Time now_ = 0;
  double best_ = 0.0;
  std::vector<ga::Genome> last_population_;  ///< previous replan, best-first
  std::vector<EventReply> transcript_;
  /// Serializes replans (the mutex drops while the engine runs, so
  /// readers stay live); a second apply() waits here for its turn.
  bool replanning_ = false;
  std::condition_variable replan_done_;
  bool closed_ = false;  ///< set by close(); no replan starts after it

  /// Engines run on a private single lane, mirroring the daemon's
  /// per-job pools: identical execution shape in-process and in psgad.
  par::ThreadPool pool_{1};

  // Resolved metric handles (null when config_.metrics is null).
  obs::Counter* replans_ = nullptr;
  obs::Counter* slo_miss_ = nullptr;
  obs::Histogram* event_latency_ns_ = nullptr;
  obs::Histogram* decode_ns_ = nullptr;
};

/// FNV-1a 64-bit (the transcript hash; exposed for the CI leg's tests).
std::uint64_t fnv1a(const std::string& text);

/// Deterministic seeded event trace for benches and CI smoke: `count`
/// events at strictly increasing times within the instance's rough
/// makespan horizon, cycling arrival/breakdown/due-date kinds with
/// instance-shaped routes and durations.
std::vector<Event> random_trace(const sched::JobShopInstance& inst, int count,
                                std::uint64_t seed);

}  // namespace psga::session
