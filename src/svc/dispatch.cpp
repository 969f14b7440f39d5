#include "src/svc/dispatch.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/ga/solver.h"
#include "src/svc/client.h"

namespace psga::svc {

namespace {

using exp::Json;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The sweep's @-budget as submit fields — unset fields would otherwise
/// inherit the server's default budget instead of the sweep's.
SubmitOptions submit_options(const ga::StopCondition& stop) {
  SubmitOptions options;
  if (stop.max_generations < std::numeric_limits<int>::max()) {
    options.generations = stop.max_generations;
  }
  if (stop.max_seconds > 0) options.seconds = stop.max_seconds;
  if (stop.max_evaluations > 0) options.evaluations = stop.max_evaluations;
  if (stop.target_objective >= 0) options.target = stop.target_objective;
  return options;
}

/// Rewrites a daemon watch line into the sweep schema: the `job` key
/// becomes `cell` (same position — the layouts are otherwise identical,
/// see JobObserver vs CellObserver), everything else passes through.
Json translate_line(const Json& line, int cell_index) {
  Json out = Json::object();
  for (const Json::Member& member : line.members()) {
    if (member.first == "job") {
      out.set("cell", Json::integer(cell_index));
    } else {
      out.set(member.first, member.second);
    }
  }
  return out;
}

/// Dispatch health counters, resolved once per dispatch (all null when
/// no registry is attached — bump() then costs one branch).
struct DispatchMetrics {
  obs::Counter* transport_errors = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* backoffs = nullptr;
  obs::Counter* resubmits = nullptr;

  static DispatchMetrics resolve(obs::Registry* registry) {
    DispatchMetrics metrics;
    if (registry != nullptr) {
      metrics.transport_errors = &registry->counter("dispatch.transport_errors");
      metrics.retries = &registry->counter("dispatch.retries");
      metrics.backoffs = &registry->counter("dispatch.backoffs");
      metrics.resubmits = &registry->counter("dispatch.resubmits");
    }
    return metrics;
  }
};

void bump(obs::Counter* counter) {
  if (counter != nullptr) counter->add();
}

/// One worker's bounded-retry connection: (re)connects with exponential
/// backoff, counting attempts against the shared per-cell budget.
class Connection {
 public:
  Connection(std::string socket_path, int backoff_ms,
             const DispatchMetrics& metrics)
      : socket_path_(std::move(socket_path)),
        backoff_ms_(backoff_ms),
        metrics_(metrics) {}

  Client& ensure(int& attempts_left) {
    while (!client_) {
      try {
        client_.emplace(socket_path_);
      } catch (const TransportError&) {
        bump(metrics_.transport_errors);
        if (--attempts_left <= 0) throw;
        bump(metrics_.retries);
        backoff();
      }
    }
    return *client_;
  }

  void drop() { client_.reset(); }

  void backoff() {
    bump(metrics_.backoffs);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms_));
    backoff_ms_ = std::min(backoff_ms_ * 2, 5000);
  }

 private:
  std::string socket_path_;
  int backoff_ms_;
  DispatchMetrics metrics_;
  std::optional<Client> client_;
};

}  // namespace

std::string cell_runspec(const exp::SweepCell& cell) {
  std::string spec = cell.spec;
  if (!cell.instance.empty()) spec += " instance=" + cell.instance;
  return spec;
}

exp::SweepResult dispatch_sweep(const exp::SweepSpec& sweep,
                                const std::string& socket_path,
                                const DispatchOptions& options) {
  const double sweep_start = now_seconds();
  exp::SweepResult out;
  out.spec = sweep;
  const std::vector<exp::SweepCell> cells = sweep.expand();
  if (cells.empty()) {
    throw std::invalid_argument("SweepSpec '" + sweep.name +
                                "' expands to zero cells");
  }

  exp::TelemetrySink* sink = options.telemetry;
  if (sink != nullptr) sink->write(exp::sweep_begin_record(sweep, cells));

  out.cells.resize(cells.size());
  std::mutex progress_mutex;
  int done = 0;
  const int total = static_cast<int>(cells.size());
  const SubmitOptions submit = submit_options(sweep.stop);
  const DispatchMetrics metrics = DispatchMetrics::resolve(options.metrics);

  auto run_cell = [&](Connection& connection, const exp::SweepCell& cell) {
    exp::CellResult result;
    result.cell = cell;
    if (options.resume != nullptr) {
      const auto finished =
          options.resume->find(exp::sweep_cell_hash_hex(sweep.name, cell));
      if (finished != options.resume->end()) {
        try {
          result = exp::cell_result_from_record(cell, finished->second);
        } catch (const std::exception&) {
          // A record whose fields do not read is no finished cell (as in
          // exp::scan_finished_cells): the cell runs again.
        }
      }
    }
    if (!result.resumed) {
      const std::string spec = cell_runspec(cell);
      // The same canonicalization the server applies at submit and the
      // in-process planner applies per cell — gives the telemetry
      // `problem` field and the spec echo the restart guard compares.
      std::string canonical;
      std::string problem;
      try {
        const ga::RunSpec parsed = ga::RunSpec::parse(spec);
        canonical = parsed.to_string();
        problem = parsed.problem.to_string();
      } catch (const std::exception&) {
        // Unparsable client-side: the server will reject it too; let the
        // submit produce the structured error so both paths agree that
        // the cell fails soft.
      }
      // Each cell's telemetry is buffered and flushed contiguously once
      // the cell settles: a retried watch (which replays from the job's
      // start) never duplicates lines, and a SIGKILL loses at most the
      // in-flight cells — finished cells are either fully present (and
      // resumable by hash) or absent.
      std::vector<Json> buffer;
      std::optional<long long> id;
      bool write_record = true;
      const double start = now_seconds();
      for (int attempts_left = std::max(1, options.attempts);;) {
        try {
          Client& client = connection.ensure(attempts_left);
          if (!id) id = client.submit(spec, submit);
          buffer.clear();
          buffer.push_back(exp::run_begin_record(cell, problem));
          const JobRecord job =
              client.watch(*id, [&](const Json& line) {
                const std::string event = line.string_or("event", "");
                if (event == "generation" || event == "improvement" ||
                    event == "migration") {
                  buffer.push_back(translate_line(line, cell.index));
                }
              });
          if (!canonical.empty() && job.spec != canonical) {
            // The daemon restarted and recycled our job id for someone
            // else's submit — this job is not our cell. Resubmit.
            throw TransportError("job id recycled by restarted daemon");
          }
          result.ok = job.state == JobState::kDone;
          if (result.ok) {
            result.result.best_objective = job.best_objective;
            result.result.generations = job.generations;
            result.result.evaluations = job.evaluations;
            result.result.problem = problem;
            result.result.cache = job.cache;
          } else {
            result.error = job.error.empty()
                               ? std::string("job ") + to_string(job.state)
                               : job.error;
          }
          break;
        } catch (const TransportError& e) {
          bump(metrics.transport_errors);
          connection.drop();
          if (--attempts_left <= 0) {
            // Environmental failure, not a property of the cell: fail
            // soft in-memory but leave no `cell` record, so a --resume
            // re-runs this cell instead of trusting the outage.
            result.ok = false;
            result.error = std::string("dispatch: ") + e.what();
            write_record = false;
            break;
          }
          bump(metrics.retries);
          connection.backoff();
        } catch (const ServiceError& e) {
          const std::string what = e.what();
          if (id && what.find("unknown job id") != std::string::npos) {
            // Daemon restarted and forgot the job: resubmit (seeds are
            // baked into the spec, the re-run is bit-identical).
            bump(metrics.resubmits);
            id.reset();
            continue;
          }
          if (!id && what.find("queue full") != std::string::npos) {
            // Transient admission pressure, not a bad cell.
            if (--attempts_left <= 0) {
              result.ok = false;
              result.error = std::string("dispatch: ") + what;
              write_record = false;
              break;
            }
            bump(metrics.retries);
            connection.backoff();
            continue;
          }
          // Structured server rejection (bad spec, unknown engine,
          // draining): deterministic — record it like an in-process
          // plan failure.
          result.ok = false;
          result.error = what;
          break;
        }
      }
      result.seconds = now_seconds() - start;
      if (sink != nullptr && write_record) {
        buffer.push_back(exp::cell_record(sweep, result, problem));
        for (const Json& line : buffer) sink->write(line);
      }
    }
    {
      std::lock_guard lock(progress_mutex);
      ++done;
      if (options.progress) options.progress(result, done, total);
    }
    out.cells[static_cast<std::size_t>(cell.index)] = std::move(result);
  };

  const int workers =
      std::max(1, std::min(options.jobs, static_cast<int>(cells.size())));
  if (workers == 1) {
    Connection connection(socket_path, std::max(1, options.backoff_ms),
                          metrics);
    for (const exp::SweepCell& cell : cells) run_cell(connection, cell);
  } else {
    // Dynamic dealing, exactly like the in-process runner: cells are
    // uneven, so workers pull from an atomic cursor. Each worker owns
    // its own connection; the in-flight window is `workers` jobs.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        Connection connection(socket_path, std::max(1, options.backoff_ms),
                              metrics);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= cells.size()) break;
          run_cell(connection, cells[i]);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }

  for (const exp::CellResult& result : out.cells) {
    if (!result.ok) ++out.failed;
  }
  out.seconds = now_seconds() - sweep_start;
  if (sink != nullptr) {
    sink->write(exp::sweep_end_record(sweep, total - out.failed, out.failed,
                                      out.seconds));
  }
  return out;
}

}  // namespace psga::svc
