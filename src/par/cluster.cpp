#include "src/par/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace psga::par {

namespace {
// Tags >= kCollectiveTagBase are reserved for collectives.
constexpr int kCollectiveTagBase = 1 << 24;
}  // namespace

int Rank::size() const noexcept { return cluster_->size(); }

void Rank::send(int dest, Message msg) const {
  msg.source = id_;
  cluster_->deliver(dest, std::move(msg));
}

Message Rank::recv(int tag) const { return cluster_->take(id_, tag); }

bool Rank::try_recv(int tag, Message& msg) const {
  return cluster_->try_take(id_, tag, msg);
}

void Rank::barrier() const { cluster_->barrier_wait(); }

std::vector<Message> Rank::allgather(Message mine, int tag) const {
  const int internal_tag = kCollectiveTagBase + tag;
  mine.tag = internal_tag;
  for (int dest = 0; dest < size(); ++dest) {
    if (dest != id_) send(dest, mine);
  }
  std::vector<Message> out(static_cast<std::size_t>(size()));
  mine.source = id_;
  out[static_cast<std::size_t>(id_)] = std::move(mine);
  for (int received = 0; received + 1 < size(); ++received) {
    Message msg = recv(internal_tag);
    out[static_cast<std::size_t>(msg.source)] = std::move(msg);
  }
  return out;
}

Cluster::Cluster(int size) : size_(size), mailboxes_(static_cast<std::size_t>(size)) {
  if (size < 1) throw std::invalid_argument("Cluster size must be >= 1");
}

void Cluster::run(const std::function<void(Rank&)>& body) {
  // Ranks wait at a gate until every thread exists. When a later
  // std::thread constructor throws, the started ranks leave without
  // entering `body` (where they could block forever on a rank that never
  // started) and are joined before the error propagates; destroying a
  // joinable std::thread would terminate the process instead.
  enum class Gate { kClosed, kOpen, kAborted };
  Gate gate = Gate::kClosed;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  const auto set_gate = [&](Gate state) {
    {
      std::lock_guard lock(gate_mutex);
      gate = state;
    }
    gate_cv.notify_all();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  try {
    for (int r = 0; r < size_; ++r) {
      threads.emplace_back([&, r] {
        {
          std::unique_lock lock(gate_mutex);
          gate_cv.wait(lock, [&] { return gate != Gate::kClosed; });
          if (gate == Gate::kAborted) return;
        }
        Rank rank(this, r);
        body(rank);
      });
    }
  } catch (...) {
    set_gate(Gate::kAborted);
    for (auto& t : threads) t.join();
    throw;
  }
  set_gate(Gate::kOpen);
  for (auto& t : threads) t.join();
}

void Cluster::deliver(int dest, Message msg) {
  auto& box = mailboxes_.at(static_cast<std::size_t>(dest));
  {
    std::lock_guard lock(box.mutex);
    box.queue.push_back(std::move(msg));
  }
  box.arrived.notify_all();
}

Message Cluster::take(int rank, int tag) {
  auto& box = mailboxes_.at(static_cast<std::size_t>(rank));
  std::unique_lock lock(box.mutex);
  for (;;) {
    const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                                 [tag](const Message& m) { return m.tag == tag; });
    if (it != box.queue.end()) {
      Message msg = std::move(*it);
      box.queue.erase(it);
      return msg;
    }
    box.arrived.wait(lock);
  }
}

bool Cluster::try_take(int rank, int tag, Message& msg) {
  auto& box = mailboxes_.at(static_cast<std::size_t>(rank));
  std::lock_guard lock(box.mutex);
  const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                               [tag](const Message& m) { return m.tag == tag; });
  if (it == box.queue.end()) return false;
  msg = std::move(*it);
  box.queue.erase(it);
  return true;
}

void Cluster::barrier_wait() {
  std::unique_lock lock(barrier_mutex_);
  const std::uint64_t epoch = barrier_epoch_;
  if (++barrier_arrived_ == size_) {
    barrier_arrived_ = 0;
    ++barrier_epoch_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] { return barrier_epoch_ != epoch; });
  }
}

}  // namespace psga::par
