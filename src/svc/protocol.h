// The psgad wire protocol: newline-delimited JSON over a Unix-domain
// stream socket, one request object per line, one response object per
// line (except `watch`, which streams telemetry lines after its ack).
//
// Requests carry `op` plus op-specific fields; responses carry
// `ok` (bool) plus either payload fields or `error` (a structured
// message — malformed requests never drop the connection; only a line
// over kMaxRequestBytes does, after its error reply). Every line
// in both directions carries `schema_version`
// (exp::kTelemetrySchemaVersion): the wire protocol and the on-disk
// JSONL telemetry are the same schema and evolve together.
//
//   op=submit   spec (RunSpec tokens), [priority], [generations],
//               [seconds], [evaluations], [target]
//               → ok, id, state
//   op=list     → ok, jobs[]                         (JobRecord objects)
//   op=status   id → ok, job                         (one JobRecord)
//   op=wait     id, [timeout] → ok, job, [timed_out]  (blocks until the
//               job is terminal; with timeout (seconds) the server
//               answers at the deadline with timed_out=true and the
//               job's live snapshot instead of blocking forever)
//   op=watch    id → ok, id, then the job's telemetry lines streamed
//               live (generation / improvement / migration with `job`
//               in place of `cell`, then one final job_end record);
//               after job_end the connection is back in request mode
//   op=cancel   id → ok, state    (flips queued jobs to cancelled;
//               running jobs stop at the next generation boundary)
//   op=drain    → ok, cancelled   (stop accepting, cancel the queue,
//               finish running jobs, then the daemon exits)
//   op=ping     → ok
//   op=info     → ok, config{}, build_type, uptime_seconds,
//               jobs{queued,running,done,failed,cancelled},
//               totals{admitted,completed,failed,cancelled,rejected},
//               latency{queue,run,total → {p50,p95,p99} seconds},
//               max_request_bytes
//   op=stats    → ok, uptime_seconds, metrics{} — the daemon's full
//               metrics registry (exp::metrics_to_json layout: named
//               counters, gauges and log2 histograms with percentiles)
//
// Online replanning sessions (src/session, docs/sessions.md):
//   op=session_open   instance, [solver], [generations], [evaluations],
//                     [slo], [seed], [warm], [immigrants]
//                     → ok, session, best, events
//   op=session_event  session + Event fields (kind/time/route/due/
//                     machine/duration/job — session::Event::to_json)
//                     → ok, session + the EventReply fields (index, kind,
//                     time, frozen, remaining, carried, baseline, best,
//                     adopted, generations, evaluations, plan_hash,
//                     seconds, slo_met); blocks until the replan answers
//   op=session_best   session → ok, best, now, events, plan_hash
//   op=session_close  session → ok, events, transcript (JSONL),
//                     transcript_hash — drains the session's queue first
//
// docs/service.md is the human-facing reference for this header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/exp/json.h"
#include "src/ga/eval_cache.h"
#include "src/ga/stop.h"

namespace psga::svc {

/// The longest request line the server buffers (newline excluded). A
/// longer line gets a `request too large` error and its connection is
/// closed, since the rest of the line is never read. Replies have no
/// cap: `list` and `stats` grow with the daemon's history.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

/// Job lifecycle. Queued and running are live; the other three are
/// terminal and final (a cancel on a done job is a no-op).
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* to_string(JobState state);
std::optional<JobState> job_state_from_string(const std::string& text);
inline bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

/// Client-side view of one job, as serialized in list/status/wait
/// responses. Result fields are meaningful once the state says so.
struct JobRecord {
  long long id = 0;
  JobState state = JobState::kQueued;
  std::string spec;        ///< canonical RunSpec tokens
  int priority = 0;
  ga::StopCondition stop;  ///< effective (policy-clamped) budget
  std::string error;       ///< failed jobs: what broke
  double best_objective = 0.0;
  int generations = 0;
  long long evaluations = 0;
  double seconds = 0.0;  ///< run wall-clock (0 while queued)
  /// Eval-cache counters when the job's engine ran with a cache — kept
  /// on the wire so dispatched sweep telemetry carries the same cache{}
  /// object as in-process cell records.
  std::optional<ga::EvalCacheStats> cache;
};

/// JobRecord → JSON object (the `job` payload / `jobs[]` element).
exp::Json job_to_json(const JobRecord& record);
/// JSON object → JobRecord; throws std::invalid_argument on a payload
/// missing id/state (the fields no record is valid without).
JobRecord job_from_json(const exp::Json& json);

/// Submit-time knobs. Unset budget fields fall back to the server's
/// default budget; set fields are clamped against the server's caps.
struct SubmitOptions {
  int priority = 0;  ///< higher runs first; FIFO within a priority
  std::optional<int> generations;
  std::optional<double> seconds;
  std::optional<long long> evaluations;
  std::optional<double> target;
};

/// Builds the submit request line for `spec` + options.
exp::Json submit_request(const std::string& spec,
                         const SubmitOptions& options = {});

/// session_open knobs. Unset fields keep the session layer's defaults
/// (SessionConfig in src/session/session.h).
struct SessionOptions {
  std::string solver;  ///< SolverSpec tokens; empty = session default
  std::optional<int> generations;         ///< per-event generation budget
  std::optional<long long> evaluations;   ///< per-event evaluation budget
  std::optional<double> slo_seconds;      ///< per-event wall-clock SLO
  std::optional<std::uint64_t> seed;
  std::optional<bool> warm;               ///< false = cold restarts
  std::optional<double> immigrants;       ///< WarmStart::immigrant_fraction
};

/// Builds the session_open request line for `instance` + options.
exp::Json session_open_request(const std::string& instance,
                               const SessionOptions& options = {});
/// Builds a one-field request ({"op":op}) or id-carrying request.
exp::Json simple_request(const std::string& op);
exp::Json id_request(const std::string& op, long long id);

/// Response builders (server side). Both stamp schema_version.
exp::Json ok_response();
exp::Json error_response(const std::string& message);

}  // namespace psga::svc
