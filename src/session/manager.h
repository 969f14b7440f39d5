// Serves many concurrent replanning sessions on their callers' threads.
//
// open() and apply() run the session's solve on the calling thread (in
// psgad, the connection thread that waits for the reply) while it holds
// one of `workers` solve slots, granted first come, first served. Order
// within a session is the Session's own: one replan at a time, so a
// session's transcript is the order its events reached apply(). Because
// each Session is internally deterministic, which caller runs when never
// leaks into any transcript. Sessions are shared with the callers using
// them, so a lookup racing close() never reads a destroyed session.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/session/session.h"

namespace psga::session {

struct SessionManagerConfig {
  int workers = 2;  ///< session solves running at once (clamped to >= 1)
  obs::RegistryPtr metrics;  ///< ensured when null
};

class SessionManager {
 public:
  explicit SessionManager(SessionManagerConfig config = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session, runs its opening solve on this thread under a
  /// solve slot and returns its id. The manager injects its metrics
  /// registry into `config`.
  long long open(sched::JobShopInstance inst, SessionConfig config);

  /// Applies one event on this thread under a solve slot. Throws
  /// std::invalid_argument for unknown or closed sessions; a failed
  /// replan's own exception propagates unchanged.
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
  /// Removes the session, waits for its replan in flight and seals it.
  CloseResult close(long long session);

  int active() const;  ///< open sessions

  const obs::RegistryPtr& metrics() const { return metrics_; }

 private:
  class Slot;
  std::shared_ptr<Session> find(long long session) const;

  SessionManagerConfig config_;
  obs::RegistryPtr metrics_;
  obs::Gauge* active_ = nullptr;
  obs::Counter* opened_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* events_ = nullptr;

  mutable std::mutex mutex_;
  std::map<long long, std::shared_ptr<Session>> sessions_;
  long long next_id_ = 1;
  /// Solve slots: ticket t runs once t < returned_ + workers.
  std::condition_variable slot_returned_;
  std::uint64_t tickets_ = 0;   ///< slots asked for so far
  std::uint64_t returned_ = 0;  ///< slots given back so far
};

}  // namespace psga::session
