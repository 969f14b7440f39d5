#include "src/svc/job_table.h"

#include <algorithm>
#include <chrono>

#include "src/exp/telemetry.h"

namespace psga::svc {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The job_end line the table writes when it cancels a queued job
/// itself (jobs that ran get theirs from the runner, with result
/// fields). Stamped here because it bypasses any TelemetrySink.
std::string cancelled_job_end(const Job& job) {
  return exp::Json::object()
      .set("schema_version", exp::Json::integer(exp::kTelemetrySchemaVersion))
      .set("event", exp::Json::string("job_end"))
      .set("job", exp::Json::integer(job.record.id))
      .set("state", exp::Json::string(to_string(JobState::kCancelled)))
      .set("spec", exp::Json::string(job.record.spec))
      .set("ok", exp::Json::boolean(false))
      .dump();
}

void push_line(Job& job, const std::string& line) {
  job.log += line;
  job.log_ends.push_back(job.log.size());
}

}  // namespace

void JobTable::set_metrics(obs::Registry* registry) {
  std::lock_guard lock(mutex_);
  if (registry == nullptr) {
    queue_depth_ = jobs_retained_ = log_bytes_ = nullptr;
    jobs_admitted_ = jobs_rejected_ = nullptr;
    jobs_completed_ = jobs_failed_ = jobs_cancelled_ = nullptr;
    queue_ns_ = run_ns_ = total_ns_ = nullptr;
    return;
  }
  queue_depth_ = &registry->gauge("svc.queue.depth");
  jobs_retained_ = &registry->gauge("svc.jobs.retained");
  log_bytes_ = &registry->gauge("svc.jobs.log_bytes");
  jobs_admitted_ = &registry->counter("svc.jobs.admitted");
  jobs_rejected_ = &registry->counter("svc.jobs.rejected");
  jobs_completed_ = &registry->counter("svc.jobs.completed");
  jobs_failed_ = &registry->counter("svc.jobs.failed");
  jobs_cancelled_ = &registry->counter("svc.jobs.cancelled");
  queue_ns_ = &registry->histogram("svc.job.queue_ns");
  run_ns_ = &registry->histogram("svc.job.run_ns");
  total_ns_ = &registry->histogram("svc.job.total_ns");
  update_retention_locked();
}

void JobTable::update_queue_depth_locked() const {
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  }
}

void JobTable::update_retention_locked() const {
  if (jobs_retained_ != nullptr) jobs_retained_->set(retained_);
  if (log_bytes_ != nullptr) log_bytes_->set(retained_log_bytes_);
}

void JobTable::retire_locked(Job& job, JobState state, std::uint64_t end_ns) {
  job.record.state = state;
  switch (state) {
    case JobState::kDone:
      if (jobs_completed_ != nullptr) jobs_completed_->add();
      break;
    case JobState::kFailed:
      if (jobs_failed_ != nullptr) jobs_failed_->add();
      break;
    case JobState::kCancelled:
      if (jobs_cancelled_ != nullptr) jobs_cancelled_->add();
      break;
    default:
      break;
  }
  if (total_ns_ != nullptr && job.submitted_ns != 0) {
    total_ns_->record(end_ns - job.submitted_ns);
  }
  job.log_done = true;
  job.log.shrink_to_fit();
  job.log_ends.shrink_to_fit();
  ++retained_;
  retained_log_bytes_ += static_cast<std::int64_t>(job.log.size());
  update_retention_locked();
}

JobPtr JobTable::submit(std::string spec, int priority,
                        const ga::StopCondition& stop) {
  std::unique_lock lock(mutex_);
  if (draining_) {
    if (jobs_rejected_ != nullptr) jobs_rejected_->add();
    throw AdmissionError("server is draining");
  }
  if (queued_count_locked() >= max_queued_) {
    if (jobs_rejected_ != nullptr) jobs_rejected_->add();
    throw AdmissionError("queue full (" + std::to_string(max_queued_) +
                         " jobs queued)");
  }
  auto job = std::make_shared<Job>();
  job->record.id = next_id_++;
  job->record.spec = std::move(spec);
  job->record.priority = priority;
  job->record.stop = stop;
  job->submitted_ns = now_ns();
  jobs_[job->record.id] = job;
  queue_.push_back(job);
  if (jobs_admitted_ != nullptr) jobs_admitted_->add();
  update_queue_depth_locked();
  lock.unlock();
  work_.notify_one();
  update_.notify_all();
  return job;
}

JobPtr JobTable::next_job() {
  std::unique_lock lock(mutex_);
  for (;;) {
    // Highest priority wins; the stable scan keeps FIFO order within a
    // priority (queue_ is submission-ordered).
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (best == queue_.end() ||
          (*it)->record.priority > (*best)->record.priority) {
        best = it;
      }
    }
    if (best != queue_.end()) {
      JobPtr job = *best;
      queue_.erase(best);
      job->record.state = JobState::kRunning;
      job->started_ns = now_ns();
      if (queue_ns_ != nullptr) {
        queue_ns_->record(job->started_ns - job->submitted_ns);
      }
      update_queue_depth_locked();
      update_.notify_all();
      return job;
    }
    if (draining_) return nullptr;
    work_.wait(lock);
  }
}

void JobTable::finish(const JobPtr& job, JobState state,
                      const ga::RunResult& result, std::string error,
                      double seconds) {
  {
    std::lock_guard lock(mutex_);
    JobRecord& record = job->record;
    record.error = std::move(error);
    record.best_objective = result.best_objective;
    record.generations = result.generations;
    record.evaluations = result.evaluations;
    record.seconds = seconds;
    record.cache = result.cache;
    const std::uint64_t end_ns = now_ns();
    if (run_ns_ != nullptr && job->started_ns != 0) {
      run_ns_->record(end_ns - job->started_ns);
    }
    retire_locked(*job, state, end_ns);
  }
  update_.notify_all();
}

std::optional<JobState> JobTable::request_cancel(long long id) {
  {
    std::lock_guard lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    Job& job = *it->second;
    job.cancel.store(true, std::memory_order_relaxed);
    if (job.record.state != JobState::kQueued) return job.record.state;
    queue_.erase(std::remove(queue_.begin(), queue_.end(), it->second),
                 queue_.end());
    push_line(job, cancelled_job_end(job));
    retire_locked(job, JobState::kCancelled, now_ns());
    update_queue_depth_locked();
  }
  update_.notify_all();
  return JobState::kCancelled;
}

int JobTable::drain() {
  int cancelled = 0;
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
    const std::uint64_t end_ns = now_ns();
    for (const JobPtr& job : queue_) {
      job->cancel.store(true, std::memory_order_relaxed);
      push_line(*job, cancelled_job_end(*job));
      retire_locked(*job, JobState::kCancelled, end_ns);
      ++cancelled;
    }
    queue_.clear();
    update_queue_depth_locked();
  }
  work_.notify_all();
  update_.notify_all();
  return cancelled;
}

bool JobTable::draining() const {
  std::lock_guard lock(mutex_);
  return draining_;
}

void JobTable::append_log(const JobPtr& job, const std::string& line) {
  {
    std::lock_guard lock(mutex_);
    push_line(*job, line);
  }
  update_.notify_all();
}

bool JobTable::follow_log(const JobPtr& job, std::size_t& cursor,
                          std::vector<std::string>& out) {
  std::unique_lock lock(mutex_);
  const std::vector<std::size_t>& ends = job->log_ends;
  update_.wait(lock, [&] { return ends.size() > cursor || job->log_done; });
  const std::size_t from = std::min(cursor, ends.size());
  // Resized, not cleared: assign() reuses the strings' buffers across
  // calls on one watch connection.
  out.resize(ends.size() - from);
  for (std::size_t line = from; line < ends.size(); ++line) {
    const std::size_t begin = line == 0 ? 0 : ends[line - 1];
    out[line - from].assign(job->log, begin, ends[line] - begin);
  }
  cursor = ends.size();
  return !out.empty() || !job->log_done;
}

void JobTable::wait_terminal(const JobPtr& job) {
  std::unique_lock lock(mutex_);
  update_.wait(lock, [&] { return is_terminal(job->record.state); });
}

bool JobTable::wait_terminal_for(const JobPtr& job, double seconds) {
  std::unique_lock lock(mutex_);
  if (seconds <= 0) {
    update_.wait(lock, [&] { return is_terminal(job->record.state); });
    return true;
  }
  return update_.wait_for(lock, std::chrono::duration<double>(seconds),
                          [&] { return is_terminal(job->record.state); });
}

JobPtr JobTable::find(long long id) const {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobRecord JobTable::snapshot(long long id) const {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("unknown job id " + std::to_string(id));
  }
  return it->second->record;
}

std::vector<JobRecord> JobTable::snapshot_all() const {
  std::lock_guard lock(mutex_);
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) records.push_back(job->record);
  return records;
}

std::array<int, 5> JobTable::counts() const {
  std::lock_guard lock(mutex_);
  std::array<int, 5> counts{};
  for (const auto& [id, job] : jobs_) {
    counts[static_cast<std::size_t>(job->record.state)]++;
  }
  return counts;
}

void JobTable::set_max_queued(int max_queued) {
  std::lock_guard lock(mutex_);
  max_queued_ = max_queued;
}

int JobTable::max_queued() const {
  std::lock_guard lock(mutex_);
  return max_queued_;
}

int JobTable::queued_count_locked() const {
  return static_cast<int>(queue_.size());
}

}  // namespace psga::svc
