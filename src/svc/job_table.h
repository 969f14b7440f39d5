// The daemon's multi-tenant job table: admission control, a priority
// queue feeding worker lanes, per-job cancellation, and the telemetry
// log that `watch` clients replay and follow.
//
// Concurrency model: one mutex guards the whole table; two condition
// variables split the waiters — `work_` wakes worker lanes when a job
// is queued (or the table starts draining), `update_` broadcasts every
// state change and telemetry append to watchers and wait()ers. Jobs are
// shared_ptrs so a worker can run one outside the lock while clients
// snapshot it; everything mutable on a Job is only touched under the
// table mutex except `cancel`, an atomic the run observer polls from
// the engine thread without locking.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ga/result.h"
#include "src/obs/metrics.h"
#include "src/svc/protocol.h"

namespace psga::svc {

/// One submitted job. Fields other than `cancel` are guarded by the
/// owning JobTable's mutex; `record.id`, `record.spec`,
/// `record.priority` and `record.stop` are fixed at submit, so the
/// runner reads them without it.
struct Job {
  /// What status/list/wait serve, and all a finished job keeps of its
  /// run: finish() copies the RunResult's best objective, generations,
  /// evaluations and cache counters in, and the RunResult is dropped.
  JobRecord record;
  std::atomic<bool> cancel{false};
  /// The job's full JSONL event log (schema_version-stamped lines),
  /// stored back to back in one buffer: line i is
  /// log[log_ends[i-1], log_ends[i]) (from 0 for i = 0). Watchers replay
  /// from line 0, then follow appends; `log_done` means no further
  /// lines will arrive (set with the terminal state, after the job_end
  /// record lands), and both buffers are then shrunk to fit.
  std::string log;
  std::vector<std::size_t> log_ends;
  bool log_done = false;
  /// Steady-clock stamps (ns) for the queue/run latency histograms:
  /// set at submit and at the queued→running transition.
  std::uint64_t submitted_ns = 0;
  std::uint64_t started_ns = 0;
};

using JobPtr = std::shared_ptr<Job>;

/// Thrown by submit() when admission control rejects a job (queue at
/// max_queued, or the table is draining).
struct AdmissionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class JobTable {
 public:
  explicit JobTable(int max_queued) : max_queued_(max_queued) {}

  /// Attaches the daemon's metrics registry (not owned; must outlive the
  /// table). Resolves every handle once:
  ///   svc.queue.depth                            gauge
  ///   svc.jobs.{retained,log_bytes}              gauges
  ///   svc.jobs.{admitted,rejected,completed,failed,cancelled}  counters
  ///   svc.job.{queue_ns,run_ns,total_ns}         histograms
  /// Call before serving traffic; null detaches.
  void set_metrics(obs::Registry* registry);

  /// Admits a job or throws AdmissionError (queue full / draining).
  /// The caller pre-validates and pre-clamps spec and stop.
  JobPtr submit(std::string spec, int priority,
                const ga::StopCondition& stop);

  /// Blocks until a queued job is available (highest priority first,
  /// FIFO within a priority), marks it running and returns it; nullptr
  /// once the table is draining and the queue is empty (the worker's
  /// signal to exit).
  JobPtr next_job();

  /// Terminal transition for a job the caller ran: keeps the run's
  /// summary in the job's record, not `result` itself. Appends nothing —
  /// the runner writes the job_end record via append_log first.
  void finish(const JobPtr& job, JobState state, const ga::RunResult& result,
              std::string error, double seconds);

  /// Cancels `id`: queued jobs flip to cancelled immediately (their log
  /// is closed with a job_end record by the table); running jobs get
  /// their cancel flag set and stop at the next generation boundary.
  /// Returns the job's state after the call, or nullopt for unknown ids.
  std::optional<JobState> request_cancel(long long id);

  /// Stops admission, cancels every queued job, and wakes all workers.
  /// Returns the number of queued jobs cancelled. Idempotent.
  int drain();
  bool draining() const;

  /// Appends a telemetry line to the job's log and wakes watchers.
  void append_log(const JobPtr& job, const std::string& line);

  /// Copies log lines starting at line `cursor` (advancing it). Blocks
  /// until new lines arrive or the log closes; returns false when the
  /// log is closed and fully consumed.
  bool follow_log(const JobPtr& job, std::size_t& cursor,
                  std::vector<std::string>& out);

  /// Blocks until the job is terminal.
  void wait_terminal(const JobPtr& job);
  /// Bounded wait: blocks up to `seconds` (<= 0 waits forever). Returns
  /// whether the job reached a terminal state before the deadline.
  bool wait_terminal_for(const JobPtr& job, double seconds);

  JobPtr find(long long id) const;
  JobRecord snapshot(long long id) const;  ///< throws for unknown ids
  std::vector<JobRecord> snapshot_all() const;
  /// Jobs per state, protocol order (queued..cancelled).
  std::array<int, 5> counts() const;

  void set_max_queued(int max_queued);
  int max_queued() const;

 private:
  int queued_count_locked() const;
  void update_queue_depth_locked() const;
  /// Every terminal transition ends here: sets `state`, counts it,
  /// records svc.job.total_ns, closes and shrinks the log, and adds the
  /// job to the retention gauges.
  void retire_locked(Job& job, JobState state, std::uint64_t end_ns);
  void update_retention_locked() const;

  // Resolved metric handles (null when no registry is attached). The
  // handles write lock-free, so counting happens wherever convenient —
  // inside or outside the table mutex.
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* jobs_retained_ = nullptr;
  obs::Gauge* log_bytes_ = nullptr;
  obs::Counter* jobs_admitted_ = nullptr;
  obs::Counter* jobs_rejected_ = nullptr;
  obs::Counter* jobs_completed_ = nullptr;
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* jobs_cancelled_ = nullptr;
  obs::Histogram* queue_ns_ = nullptr;
  obs::Histogram* run_ns_ = nullptr;
  obs::Histogram* total_ns_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable work_;    ///< workers: queue non-empty / draining
  std::condition_variable update_;  ///< watchers + wait()ers
  std::map<long long, JobPtr> jobs_;
  std::vector<JobPtr> queue_;  ///< submission order; next_job scans by priority
  long long next_id_ = 1;
  int max_queued_;
  /// Terminal jobs held in jobs_ and the bytes of their logs' text (the
  /// table never lets a job go; svc.jobs.retained / svc.jobs.log_bytes).
  std::int64_t retained_ = 0;
  std::int64_t retained_log_bytes_ = 0;
  bool draining_ = false;
};

}  // namespace psga::svc
