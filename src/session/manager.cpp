#include "src/session/manager.h"

#include <stdexcept>
#include <utility>

namespace psga::session {

SessionManager::SessionManager(SessionManagerConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  metrics_ = obs::ensure_registry(config_.metrics);
  active_ = &metrics_->gauge("session.active");
  opened_ = &metrics_->counter("session.opened");
  closed_ = &metrics_->counter("session.closed");
  events_ = &metrics_->counter("session.events");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SessionManager::~SessionManager() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

long long SessionManager::open(sched::JobShopInstance inst,
                               SessionConfig config) {
  if (config.metrics == nullptr) config.metrics = metrics_;
  long long id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  // Built and opened before registration, so no worker can see a
  // half-initialized session.
  auto session = std::make_unique<Session>(std::move(inst), std::move(config),
                                           id);
  session->open();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_[id].session = std::move(session);
  }
  opened_->add();
  active_->add(1);
  return id;
}

long long SessionManager::submit(long long session, Event event) {
  long long ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entry_or_throw(session);
    ticket = entry.next_ticket++;
    entry.queue.emplace_back(ticket, std::move(event));
  }
  events_->add();
  work_.notify_one();
  return ticket;
}

EventReply SessionManager::wait(long long session, long long ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      throw std::runtime_error("session " + std::to_string(session) +
                               " closed while waiting for ticket " +
                               std::to_string(ticket));
    }
    Entry& entry = it->second;
    auto done = entry.done.find(ticket);
    if (done != entry.done.end()) {
      EventReply reply = std::move(done->second);
      entry.done.erase(done);
      return reply;
    }
    auto failed = entry.failed.find(ticket);
    if (failed != entry.failed.end()) {
      std::string message = std::move(failed->second);
      entry.failed.erase(failed);
      throw std::runtime_error(message);
    }
    done_.wait(lock);
  }
}

EventReply SessionManager::apply(long long session, const Event& event) {
  return wait(session, submit(session, event));
}

SessionManager::BestView SessionManager::best(long long session) const {
  const Session* live = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live = entry_or_throw(session).session.get();
  }
  // Safe without the manager lock: close() waits for the queue to drain
  // before erasing, and Session accessors are internally locked.
  BestView view;
  view.best = live->best_objective();
  view.now = live->now();
  view.events = live->events();
  view.plan_hash = live->plan_hash();
  return view;
}

SessionManager::CloseResult SessionManager::close(long long session) {
  std::unique_lock<std::mutex> lock(mutex_);
  Entry& entry = entry_or_throw(session);
  if (entry.closing) {
    throw std::invalid_argument("session " + std::to_string(session) +
                                " is already closing");
  }
  entry.closing = true;
  done_.wait(lock, [&entry] { return entry.queue.empty() && !entry.busy; });
  CloseResult result;
  result.events = entry.session->events();
  result.transcript = entry.session->transcript_text();
  result.transcript_hash = entry.session->transcript_hash();
  sessions_.erase(session);
  lock.unlock();
  closed_->add();
  active_->add(-1);
  done_.notify_all();
  return result;
}

int SessionManager::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(sessions_.size());
}

void SessionManager::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] {
    for (const auto& [id, entry] : sessions_) {
      if (!entry.queue.empty() || entry.busy) return false;
    }
    return true;
  });
}

void SessionManager::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    long long id = 0;
    Entry* entry = next_runnable(&id);
    if (entry == nullptr) {
      if (stop_) return;
      work_.wait(lock);
      continue;
    }
    auto [ticket, event] = std::move(entry->queue.front());
    entry->queue.pop_front();
    entry->busy = true;
    Session* session = entry->session.get();
    lock.unlock();

    EventReply reply;
    std::string error;
    try {
      reply = session->apply(event);
    } catch (const std::exception& ex) {
      error = ex.what();
    } catch (...) {
      error = "unknown replan error";
    }

    lock.lock();
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      it->second.busy = false;
      if (error.empty()) {
        it->second.done.emplace(ticket, std::move(reply));
      } else {
        it->second.failed.emplace(ticket, std::move(error));
      }
    }
    done_.notify_all();
    // The session may hold further queued events another worker can take.
    work_.notify_all();
  }
}

SessionManager::Entry* SessionManager::next_runnable(long long* id_out) {
  auto runnable = [](const Entry& entry) {
    return !entry.busy && !entry.queue.empty();
  };
  for (auto it = sessions_.upper_bound(cursor_); it != sessions_.end(); ++it) {
    if (runnable(it->second)) {
      cursor_ = it->first;
      *id_out = it->first;
      return &it->second;
    }
  }
  for (auto it = sessions_.begin();
       it != sessions_.end() && it->first <= cursor_; ++it) {
    if (runnable(it->second)) {
      cursor_ = it->first;
      *id_out = it->first;
      return &it->second;
    }
  }
  return nullptr;
}

SessionManager::Entry& SessionManager::entry_or_throw(long long session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw std::invalid_argument("unknown session id " +
                                std::to_string(session));
  }
  return it->second;
}

const SessionManager::Entry& SessionManager::entry_or_throw(
    long long session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw std::invalid_argument("unknown session id " +
                                std::to_string(session));
  }
  return it->second;
}

}  // namespace psga::session
