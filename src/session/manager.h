// Multiplexes many concurrent replanning sessions over a shared worker pool.
//
// Ordering and fairness: every session owns a FIFO event queue; at most
// one worker processes a given session at a time (so per-session event
// order — and therefore the transcript — is exactly the submission
// order), and a round-robin cursor picks the next runnable session, so a
// chatty session cannot starve the others. Because each Session is
// internally deterministic, the manager's scheduling freedom never leaks
// into any transcript.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/session/session.h"

namespace psga::session {

struct SessionManagerConfig {
  int workers = 2;  ///< event-processing threads (clamped to >= 1)
  obs::RegistryPtr metrics;  ///< ensured when null
};

class SessionManager {
 public:
  explicit SessionManager(SessionManagerConfig config = {});
  /// Drains the queues (every accepted event still gets its replan) and
  /// joins the workers.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session, runs its opening solve inline (the caller needs
  /// the first answer anyway) and returns its id. The manager injects
  /// its metrics registry into `config`.
  long long open(sched::JobShopInstance inst, SessionConfig config);

  /// Enqueues an event (FIFO within the session); returns a ticket.
  /// Throws std::invalid_argument for unknown/closed sessions.
  long long submit(long long session, Event event);

  /// Blocks until `ticket` has been processed and returns its reply.
  /// Rethrows the event's error if its replan threw.
  EventReply wait(long long session, long long ticket);

  /// submit() + wait(): what the service layer calls per connection.
  EventReply apply(long long session, const Event& event);

  struct BestView {
    double best = 0.0;
    sched::Time now = 0;
    int events = 0;
    std::uint64_t plan_hash = 0;
  };
  /// The session's current committed answer (live during replans).
  BestView best(long long session) const;

  struct CloseResult {
    int events = 0;
    std::string transcript;      ///< deterministic JSONL
    std::uint64_t transcript_hash = 0;
  };
  /// Waits for the session's queued events, then removes it.
  CloseResult close(long long session);

  int active() const;  ///< open sessions
  /// Blocks until every queued event of every session is processed.
  void drain();

  const obs::RegistryPtr& metrics() const { return metrics_; }

 private:
  struct Entry {
    std::unique_ptr<Session> session;
    std::deque<std::pair<long long, Event>> queue;
    std::map<long long, EventReply> done;
    /// Events whose replan threw: ticket -> error message.
    std::map<long long, std::string> failed;
    long long next_ticket = 1;
    bool busy = false;     ///< a worker is inside session->apply()
    bool closing = false;  ///< no new submissions
  };

  void worker_loop();
  /// Round-robin scan for a session with work and no worker; returns
  /// nullptr when none. Caller holds mutex_.
  Entry* next_runnable(long long* id_out);
  Entry& entry_or_throw(long long session);
  const Entry& entry_or_throw(long long session) const;

  SessionManagerConfig config_;
  obs::RegistryPtr metrics_;
  obs::Gauge* active_ = nullptr;
  obs::Counter* opened_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* events_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable work_;  ///< new work / shutdown
  std::condition_variable done_;  ///< an event finished / queue drained
  std::map<long long, Entry> sessions_;
  long long next_id_ = 1;
  long long cursor_ = 0;  ///< round-robin fairness cursor (session id)
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace psga::session
