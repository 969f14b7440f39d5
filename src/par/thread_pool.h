// Fixed-size worker pool with a static-chunked parallel_for.
//
// This is the CPU carrier for the master-slave engine (Table III of the
// survey: fitness evaluation farmed to slaves), the cellular engine
// (Table IV: one lane per grid region) and the thread-backend island
// engine (Table V). Work is split into contiguous ranges, one per worker,
// so the mapping from loop index to worker is deterministic; combined with
// per-index Rng streams this keeps every engine's output independent of
// the worker count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psga::par {

class ThreadPool {
 public:
  /// Creates `threads` workers; values < 1 are clamped to 1. A pool of one
  /// thread executes everything inline on the caller.
  explicit ThreadPool(int threads = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for i in [0, n), blocking until all iterations finish.
  /// fn must be safe to call concurrently for distinct i. Exceptions from
  /// fn terminate (GA kernels are noexcept by design); keep kernels clean.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs fn(lane, begin, end) once per contiguous chunk, blocking until
  /// all finish; the lane index is 0-based, and lane 0 is the calling
  /// thread. Lane k always receives the k-th static chunk
  /// [k*n/lanes, (k+1)*n/lanes), so per-lane state (e.g. an evaluation
  /// Workspace) is reused deterministically across calls.
  void parallel_lanes(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
        nullptr;
    std::size_t lane = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<Task> tasks_;      // one slot per worker thread
  std::size_t generation_ = 0;   // bumped per parallel region
  std::size_t pending_ = 0;
  bool stop_ = false;
};

/// Library-wide default pool (sized from PSGA_THREADS). Engines take an
/// optional pool pointer and fall back to this.
ThreadPool& default_pool();

}  // namespace psga::par
