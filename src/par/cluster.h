// In-process message-passing cluster: the MPI substitute.
//
// Several surveyed systems run island GAs over MPI on Beowulf clusters
// (Harmanani [33]) or multi-hundred-node workstation farms (Defersha
// [35][36]). This environment has no MPI installation, so psga provides a
// rank/mailbox layer with the same *semantics*: each rank runs on its own
// thread with private state and communicates only through explicit
// messages. Island-GA code written against this layer is line-for-line
// the code one would write against MPI_Send/MPI_Recv: each rank's state,
// the messages and their order are what an MPI run would have, and only
// the transport (shared memory instead of a network) differs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

namespace psga::par {

/// Opaque message payload. GA migration ships genomes as flat int/double
/// buffers, mirroring what MPI derived datatypes would carry.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;
};

class Cluster;

/// Handle passed to each rank's body; provides the MPI-like operations.
class Rank {
 public:
  int id() const noexcept { return id_; }
  int size() const noexcept;

  /// Non-blocking, buffered send (like MPI_Send with a buffered mode).
  void send(int dest, Message msg) const;

  /// Blocking receive of the next message with matching tag (any source).
  Message recv(int tag) const;

  /// Non-blocking probe-and-receive: returns true and fills msg if a
  /// message with the tag is queued.
  bool try_recv(int tag, Message& msg) const;

  /// Collective barrier across all ranks.
  void barrier() const;

  /// Collective all-gather of one message per rank; result indexed by
  /// source rank. Implemented as send-to-all + receive-all, with an
  /// internal tag space so user tags never collide.
  std::vector<Message> allgather(Message mine, int tag) const;

 private:
  friend class Cluster;
  Rank(Cluster* cluster, int id) : cluster_(cluster), id_(id) {}
  Cluster* cluster_;
  int id_;
};

/// Runs `size` ranks, each executing `body(rank)`, and joins them.
/// Construction is cheap; all state lives for the duration of run().
class Cluster {
 public:
  explicit Cluster(int size);

  int size() const noexcept { return size_; }

  /// Execute the SPMD body on all ranks; blocks until every rank returns.
  void run(const std::function<void(Rank&)>& body);

 private:
  friend class Rank;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Message> queue;
  };

  void deliver(int dest, Message msg);
  Message take(int rank, int tag);
  bool try_take(int rank, int tag, Message& msg);
  void barrier_wait();

  int size_;
  std::vector<Mailbox> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_epoch_ = 0;
};

}  // namespace psga::par
