// The psgad client library: one blocking connection speaking the
// newline-JSON protocol. psgactl, psga_sweep --dispatch and the service
// tests all go through this class, so the wire format has exactly one
// client-side implementation.
//
//   Client client(socket_path);
//   long long id = client.submit("problem=flowshop instance=ta001 "
//                                "engine=island seed=7");
//   JobRecord job = client.watch(id, [](const exp::Json& line) { ... });
//
// Methods throw TransportError for transport failures ({connect
// refused, connection lost, malformed server line}) and plain
// ServiceError for server-side {ok:false} responses — the server's
// structured error message becomes the exception text. TransportError
// is-a ServiceError, so callers who don't care catch one type; callers
// who retry (psga_sweep --dispatch) reconnect on TransportError and
// fail the cell on ServiceError. One in-flight request per Client; a
// watch owns the connection until its job_end arrives.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/svc/protocol.h"
#include "src/svc/socket.h"

namespace psga::svc {

struct ServiceError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Connection-level failure (vs. a structured server rejection): the
/// daemon may be restarting, so retrying on a fresh connection can
/// succeed where re-sending the same request cannot.
struct TransportError : ServiceError {
  using ServiceError::ServiceError;
};

class Client {
 public:
  /// Connects immediately; throws TransportError when nothing listens.
  explicit Client(const std::string& socket_path);

  /// One request/response round trip. Stamps schema_version on the
  /// request, throws ServiceError on transport failure or {ok:false}.
  exp::Json request(const exp::Json& request_line);

  /// Submits a RunSpec; returns the job id.
  long long submit(const std::string& spec, const SubmitOptions& options = {});

  std::vector<JobRecord> list();
  JobRecord status(long long id);
  /// Blocks until the job is terminal; returns the final record.
  JobRecord wait(long long id);
  /// Bounded wait: nullopt when `seconds` elapsed first (<= 0 = forever).
  std::optional<JobRecord> wait_for(long long id, double seconds);
  /// Streams the job's telemetry (replayed from its start, then live):
  /// `on_line` sees every parsed line including the final job_end, then
  /// watch() fetches and returns the job's terminal record.
  JobRecord watch(long long id,
                  const std::function<void(const exp::Json&)>& on_line = {});
  /// Returns the job's state after the cancel request.
  JobState cancel(long long id);
  /// Initiates server drain; returns the number of queued jobs cancelled.
  int drain();
  void ping();
  /// The server's `info` payload (config + job counts + uptime/build).
  exp::Json info();
  /// The server's `stats` payload (uptime + full metrics registry
  /// snapshot in the exp::metrics_to_json layout).
  exp::Json stats();

  // --- online replanning sessions (op=session_*) ---
  // Event payloads travel as flat JSON objects (session::Event::to_json
  // on the sending side), keeping this class free of session-layer types.

  /// Opens a session on `instance`; returns the session id.
  long long session_open(const std::string& instance,
                         const SessionOptions& options = {});
  /// Applies one event (blocks until the replan answers); returns the
  /// full response line (EventReply fields + seconds/slo_met).
  exp::Json session_event(long long session, const exp::Json& event_fields);
  /// The session's current answer: best, now, events, plan_hash.
  exp::Json session_best(long long session);
  /// Drains and closes the session; the response carries the transcript
  /// (JSONL) and its hash.
  exp::Json session_close(long long session);

 private:
  exp::Json read_response();

  Fd fd_;
  /// Unbounded, unlike the server's: `list` and `stats` replies grow
  /// with the daemon's history.
  LineReader reader_;
};

}  // namespace psga::svc
