#include "src/par/thread_pool.h"

#include "src/par/env.h"

namespace psga::par {

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = default_thread_count();
  const int helpers = threads - 1;  // caller thread is worker 0
  tasks_.resize(static_cast<std::size_t>(helpers > 0 ? helpers : 0));
  workers_.reserve(tasks_.size());
  for (std::size_t w = 0; w < tasks_.size(); ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      task = tasks_[worker_index];
    }
    if (task.body != nullptr && task.begin < task.end) {
      (*task.body)(task.lane, task.begin, task.end);
    }
    {
      // Every helper acknowledges every generation, even with an empty
      // range — pending_ counts helpers, not nonempty chunks.
      std::lock_guard lock(mutex_);
      if (--pending_ == 0) done_.notify_one();
    }
  }
}

void ThreadPool::parallel_lanes(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t lanes = tasks_.size() + 1;
  if (lanes == 1 || n == 1) {
    fn(0, 0, n);
    return;
  }
  // Static chunking: lane k gets [k*n/lanes, (k+1)*n/lanes).
  std::size_t my_begin = 0, my_end = 0;
  {
    std::lock_guard lock(mutex_);
    pending_ = tasks_.size();
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::size_t begin = k * n / lanes;
      const std::size_t end = (k + 1) * n / lanes;
      if (k == 0) {
        my_begin = begin;
        my_end = end;
      } else {
        tasks_[k - 1] = Task{&fn, k, begin, end};
      }
    }
    ++generation_;
  }
  wake_.notify_all();
  if (my_begin < my_end) fn(0, my_begin, my_end);
  std::unique_lock lock(mutex_);
  done_.wait(lock, [&] { return pending_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_lanes(n, [&fn](std::size_t /*lane*/, std::size_t begin,
                          std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& default_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace psga::par
