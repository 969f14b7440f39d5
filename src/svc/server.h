// psgad's server core: a Unix-socket listener, a pool of worker lanes
// running jobs through Solver::build(RunSpec), and per-connection
// request threads speaking the newline-JSON protocol (protocol.h).
//
// The bessd/bessctl split: the daemon owns all solver state and a thin
// CLI (psgactl, via svc::Client) speaks the message protocol over a
// local socket. Embeddable by design — tests run a Server in-process
// over a temp socket (tests/test_service.cpp); tools/psgad.cpp is just
// flags + signals around this class.
//
// Lifecycle: start() binds the socket and launches the accept loop and
// worker lanes; drain() (idempotent, also triggered by the `drain` op
// and psgad's SIGTERM handler) stops admission, cancels queued jobs and
// lets running jobs finish; wait() blocks until the drained server has
// stopped; stop() is drain() + join everything (the destructor calls
// it). reload() swaps in new policy limits (admission + budget caps) —
// psgad wires it to SIGHUP.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/ga/stop.h"
#include "src/obs/metrics.h"
#include "src/session/manager.h"
#include "src/svc/job_table.h"
#include "src/svc/socket.h"

namespace psga::svc {

/// Server policy. The budget caps clamp every submitted job's
/// StopCondition: a client may ask for less than a cap, never more
/// (0 = uncapped). Reloadable fields are marked; workers is fixed at
/// start().
struct ServerConfig {
  std::string socket_path = "/tmp/psgad.sock";
  int workers = 2;     ///< concurrent running jobs (fixed at start)
  int max_queued = 64; ///< admission limit on queued jobs (reloadable)
  /// Session solves (opening solves included) running at once, across
  /// all sessions; each runs on its connection thread (fixed at start).
  int session_workers = 2;
  /// Generation-event stride in job telemetry logs (reloadable;
  /// 1 = every generation, 0 = improvements and job_end only).
  int telemetry_every = 1;
  // Budget caps (reloadable). Also the default budget: a submit with no
  // budget fields runs under exactly these caps (uncapped fields fall
  // back to StopCondition{} defaults — 100 generations).
  int max_generations = 0;
  double max_seconds = 0.0;
  long long max_evaluations = 0;

  /// Parses "key=value ..." tokens (the SolverSpec token idiom):
  /// socket= workers= max_queued= session_workers= telemetry_every=
  /// max_generations= max_seconds= max_evaluations=. Unknown keys throw
  /// std::invalid_argument naming the token. Applied on top of *this,
  /// so a config file only lists what it overrides.
  void apply_tokens(const std::string& text);

  /// apply_tokens over a config file's contents ('#' comments,
  /// whitespace/newline separated). Throws on unreadable paths.
  void apply_file(const std::string& path);

  /// The submitted budget clamped against the caps: each set cap lowers
  /// the corresponding field; unset request fields inherit the cap.
  ga::StopCondition clamp(const ga::StopCondition& requested) const;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches accept + worker threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// Graceful drain: reject new submissions, cancel queued jobs, finish
  /// running ones, then shut down. Returns the number of queued jobs
  /// cancelled. Safe from any thread, including connection handlers.
  int drain();

  /// Blocks until the server has fully stopped (drain completed and all
  /// threads joined). Call after start(); psgad's main thread lives here.
  void wait();

  /// drain() + wait(). The destructor calls stop().
  void stop();

  /// Swaps in reloadable limits from `config` (max_queued,
  /// telemetry_every, budget caps). Socket path and workers are ignored
  /// — they are fixed for the server's lifetime.
  void reload(const ServerConfig& config);

  const std::string& socket_path() const { return config_.socket_path; }
  JobTable& jobs() { return table_; }
  /// The open sessions behind the session_* ops. Their solves run on
  /// the connection threads under session_workers slots, record into
  /// the daemon's metrics registry and run uncached.
  session::SessionManager& sessions() { return sessions_; }
  /// The daemon's process-lifetime metrics registry (queue depth, job
  /// counters, latency histograms — see JobTable::set_metrics). The
  /// `stats` op serves its snapshot; tests scrape it directly.
  obs::Registry& metrics() { return registry_; }

 private:
  void accept_loop();
  void reap_connections();
  void worker_loop();
  void serve_connection(Fd fd);
  void run_job(const JobPtr& job);
  exp::Json handle_request(const exp::Json& request, int connection_fd,
                           bool& streamed);

  ServerConfig config_;  ///< reloadable fields guarded by config_mutex_
  mutable std::mutex config_mutex_;
  /// Process-lifetime metrics (declared before table_, which resolves
  /// handles into it at construction and writes through them until its
  /// own destruction).
  obs::Registry registry_;
  double start_seconds_ = 0.0;  ///< steady-clock stamp of construction
  JobTable table_;
  /// Declared after registry_ (sessions write metrics through it), so
  /// destroyed before it.
  session::SessionManager sessions_;
  std::unique_ptr<UnixListener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> connections_;
  std::vector<std::thread::id> finished_;  ///< connections ready to reap
  std::mutex connections_mutex_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::once_flag join_once_;
};

}  // namespace psga::svc
