#include "src/session/manager.h"

#include <stdexcept>
#include <utility>

namespace psga::session {
namespace {

[[noreturn]] void unknown_session(long long session) {
  throw std::invalid_argument("unknown session id " + std::to_string(session));
}

}  // namespace

/// Holds one solve slot for its lifetime, so a throwing solve returns it
/// too. Waiters are served in ticket order.
class SessionManager::Slot {
 public:
  explicit Slot(SessionManager& manager) : manager_(manager) {
    std::unique_lock<std::mutex> lock(manager_.mutex_);
    const std::uint64_t ticket = manager_.tickets_++;
    const auto workers = static_cast<std::uint64_t>(manager_.config_.workers);
    manager_.slot_returned_.wait(
        lock, [&] { return ticket < manager_.returned_ + workers; });
  }
  ~Slot() {
    {
      std::lock_guard<std::mutex> lock(manager_.mutex_);
      ++manager_.returned_;
    }
    manager_.slot_returned_.notify_all();
  }
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

 private:
  SessionManager& manager_;
};

SessionManager::SessionManager(SessionManagerConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  metrics_ = obs::ensure_registry(config_.metrics);
  active_ = &metrics_->gauge("session.active");
  opened_ = &metrics_->counter("session.opened");
  closed_ = &metrics_->counter("session.closed");
  events_ = &metrics_->counter("session.events");
}

long long SessionManager::open(sched::JobShopInstance inst,
                               SessionConfig config) {
  if (config.metrics == nullptr) config.metrics = metrics_;
  long long id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  // Opened before registration, so no lookup sees a session without its
  // first plan.
  auto session =
      std::make_shared<Session>(std::move(inst), std::move(config), id);
  {
    Slot slot(*this);
    session->open();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.emplace(id, std::move(session));
  }
  opened_->add();
  active_->add(1);
  return id;
}

EventReply SessionManager::apply(long long session, const Event& event) {
  const std::shared_ptr<Session> live = find(session);
  events_->add();
  Slot slot(*this);
  return live->apply(event);
}

SessionManager::BestView SessionManager::best(long long session) const {
  const std::shared_ptr<Session> live = find(session);
  BestView view;
  view.best = live->best_objective();
  view.now = live->now();
  view.events = live->events();
  view.plan_hash = live->plan_hash();
  return view;
}

SessionManager::CloseResult SessionManager::close(long long session) {
  std::shared_ptr<Session> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) unknown_session(session);
    live = std::move(it->second);
    sessions_.erase(it);
  }
  live->close();
  CloseResult result;
  result.events = live->events();
  result.transcript = live->transcript_text();
  result.transcript_hash = fnv1a(result.transcript);
  closed_->add();
  active_->add(-1);
  return result;
}

int SessionManager::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(sessions_.size());
}

std::shared_ptr<Session> SessionManager::find(long long session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) unknown_session(session);
  return it->second;
}

}  // namespace psga::session
