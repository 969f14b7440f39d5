#include "src/svc/server.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/exp/obs_json.h"
#include "src/exp/telemetry.h"
#include "src/ga/problem_registry.h"
#include "src/ga/solver.h"
#include "src/ga/spec_util.h"
#include "src/par/thread_pool.h"

// Stamped by the build system (CMake passes the active CMAKE_BUILD_TYPE)
// so `info` can report what kind of binary is serving.
#ifndef PSGA_BUILD_TYPE
#define PSGA_BUILD_TYPE "unknown"
#endif

namespace psga::svc {

namespace {

using exp::Json;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// TelemetrySink whose transport is the job's in-table log: watchers
/// replay and follow it over their sockets — the socket-backed leg of
/// the telemetry pipeline. Lines are stamped/serialized once here and
/// fanned out to any number of watch connections by the table.
class JobLogSink final : public exp::TelemetrySink {
 public:
  JobLogSink(JobTable& table, JobPtr job)
      : table_(&table), job_(std::move(job)) {}

 protected:
  void emit(const std::string& text) override {
    table_->append_log(job_, text);
  }

 private:
  JobTable* table_;
  JobPtr job_;
};

/// CellObserver's service twin: streams generation / improvement /
/// migration events keyed by `job`, and stops the engine at the next
/// generation boundary once the job's cancel flag is up (the
/// RunObserver early-stop hook is the whole cancellation mechanism).
class JobObserver final : public ga::RunObserver {
 public:
  JobObserver(exp::TelemetrySink& sink, const JobPtr& job, int every)
      : sink_(&sink), job_(job.get()), every_(every) {}

  bool on_generation(const ga::Engine& engine,
                     const ga::GenerationEvent& event) override {
    (void)engine;
    if (every_ > 0 && event.generation % every_ == 0) {
      sink_->write(Json::object()
                       .set("event", Json::string("generation"))
                       .set("job", Json::integer(job_->record.id))
                       .set("generation", Json::integer(event.generation))
                       .set("best", Json::number(event.best_objective))
                       .set("evaluations", Json::integer(event.evaluations))
                       .set("seconds", Json::number(event.seconds)));
    }
    return !job_->cancel.load(std::memory_order_relaxed);
  }

  void on_improvement(const ga::Engine& engine,
                      const ga::GenerationEvent& event) override {
    (void)engine;
    sink_->write(Json::object()
                     .set("event", Json::string("improvement"))
                     .set("job", Json::integer(job_->record.id))
                     .set("generation", Json::integer(event.generation))
                     .set("best", Json::number(event.best_objective)));
  }

  void on_migration(const ga::MigrationEvent& event) override {
    sink_->write(Json::object()
                     .set("event", Json::string("migration"))
                     .set("job", Json::integer(job_->record.id))
                     .set("epoch", Json::integer(event.epoch))
                     .set("from", Json::integer(event.from))
                     .set("to", Json::integer(event.to))
                     .set("objective", Json::number(event.objective)));
  }

 private:
  exp::TelemetrySink* sink_;
  Job* job_;
  int every_;
};

}  // namespace

// --- ServerConfig ------------------------------------------------------------

void ServerConfig::apply_tokens(const std::string& text) {
  std::istringstream tokens(text);
  std::string token;
  while (tokens >> token) {
    if (token[0] == '#') {  // comment: swallow the rest of the line
      std::string rest;
      std::getline(tokens, rest);
      continue;
    }
    const std::size_t equals = token.find('=');
    if (equals == std::string::npos) {
      ga::spec::bad_token("ServerConfig", token, "expected key=value");
    }
    const std::string key = token.substr(0, equals);
    const std::string value = token.substr(equals + 1);
    if (key == "socket") {
      socket_path = value;
    } else if (key == "workers") {
      workers = ga::spec::parse_int("ServerConfig", value, token);
    } else if (key == "max_queued") {
      max_queued = ga::spec::parse_int("ServerConfig", value, token);
    } else if (key == "session_workers") {
      session_workers = ga::spec::parse_int("ServerConfig", value, token);
    } else if (key == "telemetry_every") {
      telemetry_every = ga::spec::parse_int("ServerConfig", value, token);
    } else if (key == "max_generations") {
      max_generations = ga::spec::parse_int("ServerConfig", value, token);
    } else if (key == "max_seconds") {
      max_seconds = ga::spec::parse_double("ServerConfig", value, token);
    } else if (key == "max_evaluations") {
      max_evaluations = static_cast<long long>(
          ga::spec::parse_u64("ServerConfig", value, token));
    } else {
      ga::spec::bad_token("ServerConfig", token, "unknown key");
    }
  }
}

void ServerConfig::apply_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot read config file " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  apply_tokens(text.str());
}

ga::StopCondition ServerConfig::clamp(
    const ga::StopCondition& requested) const {
  ga::StopCondition stop = requested;
  if (max_generations > 0) {
    stop.max_generations = std::min(stop.max_generations, max_generations);
  }
  if (max_seconds > 0) {
    stop.max_seconds = stop.max_seconds > 0
                           ? std::min(stop.max_seconds, max_seconds)
                           : max_seconds;
  }
  if (max_evaluations > 0) {
    stop.max_evaluations =
        stop.max_evaluations > 0
            ? std::min(stop.max_evaluations, max_evaluations)
            : max_evaluations;
  }
  return stop;
}

// --- Server ------------------------------------------------------------------

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      start_seconds_(now_seconds()),
      table_(config_.max_queued),
      // Alias the daemon registry (destroyed after sessions_ by member
      // order), so session.* metrics land in the same `stats` payload.
      sessions_({config_.session_workers,
                 obs::RegistryPtr(&registry_, [](obs::Registry*) {})}) {
  table_.set_metrics(&registry_);
}

Server::~Server() { stop(); }

void Server::start() {
  listener_ = std::make_unique<UnixListener>(config_.socket_path);
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(std::max(1, config_.workers)));
  for (int i = 0; i < std::max(1, config_.workers); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

int Server::drain() {
  // Only the table drains. A session event in flight runs on its
  // connection thread, which wait() joins after it writes the reply, so
  // every accepted event still gets its replan.
  return table_.drain();
}

void Server::wait() {
  if (!started_.load()) return;
  std::call_once(join_once_, [this] {
    // Workers exit once the table is draining and its queue is empty —
    // joining them IS the "finish running jobs" phase of the drain.
    for (std::thread& worker : workers_) worker.join();
    // All jobs terminal and all logs closed: watchers finish their
    // streams on their own, so connection readers can be interrupted.
    stopping_.store(true);
    accept_thread_.join();
    std::vector<std::thread> connections;
    {
      std::lock_guard lock(connections_mutex_);
      connections.swap(connections_);
    }
    for (std::thread& connection : connections) connection.join();
    listener_.reset();  // closes + unlinks the socket path
  });
}

void Server::stop() {
  if (!started_.load()) return;
  drain();
  wait();
}

void Server::reload(const ServerConfig& config) {
  {
    std::lock_guard lock(config_mutex_);
    config_.max_queued = config.max_queued;
    config_.telemetry_every = config.telemetry_every;
    config_.max_generations = config.max_generations;
    config_.max_seconds = config.max_seconds;
    config_.max_evaluations = config.max_evaluations;
  }
  table_.set_max_queued(config.max_queued);
}

void Server::accept_loop() {
  for (;;) {
    reap_connections();
    Fd client = listener_->accept([this] { return stopping_.load(); });
    if (!client.valid()) {
      if (stopping_.load()) return;
      continue;
    }
    std::lock_guard lock(connections_mutex_);
    connections_.emplace_back([this, fd = std::move(client)]() mutable {
      serve_connection(std::move(fd));
      std::lock_guard finished_lock(connections_mutex_);
      finished_.push_back(std::this_thread::get_id());
    });
  }
}

void Server::reap_connections() {
  // Joins connection threads that announced completion, so a long-lived
  // daemon does not accumulate joinable thread stacks. A thread joins
  // nearly instantly here: it pushed its id as its last act.
  std::vector<std::thread> done;
  {
    std::lock_guard lock(connections_mutex_);
    for (const std::thread::id id : finished_) {
      const auto it =
          std::find_if(connections_.begin(), connections_.end(),
                       [&](const std::thread& t) { return t.get_id() == id; });
      if (it != connections_.end()) {
        done.push_back(std::move(*it));
        connections_.erase(it);
      }
    }
    finished_.clear();
  }
  for (std::thread& thread : done) thread.join();
}

void Server::worker_loop() {
  while (JobPtr job = table_.next_job()) run_job(job);
}

void Server::run_job(const JobPtr& job) {
  JobLogSink sink(table_, job);
  int every;
  {
    std::lock_guard lock(config_mutex_);
    every = config_.telemetry_every;
  }
  sink.write(Json::object()
                 .set("event", Json::string("run_begin"))
                 .set("job", Json::integer(job->record.id))
                 .set("spec", Json::string(job->record.spec)));
  const double start = now_seconds();
  JobState state = JobState::kFailed;
  ga::RunResult result;
  std::string error;
  try {
    // A private single-lane pool, exactly like sweep cells: engine-level
    // pool parallelism runs inline on this worker lane, so results are a
    // pure function of the spec — bit-identical to an in-process run.
    par::ThreadPool job_pool(1);
    ga::Solver solver =
        ga::Solver::build(ga::RunSpec::parse(job->record.spec), &job_pool);
    JobObserver observer(sink, job, every);
    solver.set_observer(&observer);
    result = solver.run(job->record.stop);
    state = job->cancel.load(std::memory_order_relaxed)
                ? JobState::kCancelled
                : JobState::kDone;
  } catch (const std::exception& e) {
    state = JobState::kFailed;
    error = e.what();
  }
  const double seconds = now_seconds() - start;
  Json end = Json::object();
  end.set("event", Json::string("job_end"))
      .set("job", Json::integer(job->record.id))
      .set("state", Json::string(to_string(state)))
      .set("spec", Json::string(job->record.spec))
      .set("ok", Json::boolean(state == JobState::kDone));
  if (state == JobState::kFailed) {
    end.set("error", Json::string(error));
  } else {
    end.set("best_objective", Json::number(result.best_objective))
        .set("generations", Json::integer(result.generations))
        .set("evaluations", Json::integer(result.evaluations))
        .set("seconds", Json::number(seconds));
    // Cache counters are always engaged (Engine::run fills zeros when no
    // cache is configured), matching the in-process cell record.
    const ga::EvalCacheStats cache = result.cache.value_or(ga::EvalCacheStats{});
    end.set("cache",
            Json::object()
                .set("hits", Json::integer(cache.hits))
                .set("misses", Json::integer(cache.misses))
                .set("inserts", Json::integer(cache.inserts))
                .set("evictions", Json::integer(cache.evictions)));
  }
  sink.write(std::move(end));
  table_.finish(job, state, result, std::move(error), seconds);
}

void Server::serve_connection(Fd fd) {
  LineReader reader(fd.get(), kMaxRequestBytes);
  std::string line;
  while (reader.read_line(line, [this] { return stopping_.load(); })) {
    Json response;
    bool streamed = false;
    try {
      const Json request = Json::parse(line);
      response = handle_request(request, fd.get(), streamed);
    } catch (const std::exception& e) {
      response = error_response(e.what());
    }
    if (!streamed && !write_line(fd.get(), response.dump())) return;
  }
  if (reader.overflowed()) {
    write_line(fd.get(),
               error_response("request too large (over " +
                              std::to_string(kMaxRequestBytes) + " bytes)")
                   .dump());
  }
}

exp::Json Server::handle_request(const Json& request, int connection_fd,
                                 bool& streamed) {
  if (!request.is_object()) return error_response("request is not an object");
  const std::string op = request.string_or("op", "");
  if (op.empty()) return error_response("request has no op");

  auto job_id = [&]() -> long long {
    const Json* id = request.find("id");
    if (id == nullptr) throw std::invalid_argument(op + " needs an id");
    return id->as_i64();
  };

  if (op == "ping") return ok_response();

  if (op == "submit") {
    const std::string spec = request.string_or("spec", "");
    if (spec.empty()) return error_response("submit needs a spec");
    std::string canonical;
    try {
      const ga::RunSpec parsed = ga::RunSpec::parse(spec);
      // Registry keys resolve lazily at build time; look them up now so
      // a typo'd engine/problem is a submit-time error, not a job that
      // sits in the queue only to fail when a worker picks it up.
      const std::vector<std::string> engines = ga::engine_names();
      if (std::find(engines.begin(), engines.end(), parsed.solver.engine) ==
          engines.end()) {
        return error_response("unknown engine '" + parsed.solver.engine + "'");
      }
      const std::vector<std::string> problems = ga::problem_names();
      if (std::find(problems.begin(), problems.end(),
                    parsed.problem.problem) == problems.end()) {
        return error_response("unknown problem '" + parsed.problem.problem +
                              "'");
      }
      canonical = parsed.to_string();
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
    // Unset budget fields mirror the StopCondition named constructors:
    // any explicit budget lifts the default generation backstop.
    ga::StopCondition requested;
    const Json* generations = request.find("generations");
    const Json* seconds = request.find("seconds");
    const Json* evaluations = request.find("evaluations");
    const Json* target = request.find("target");
    if (generations != nullptr) {
      requested.max_generations = generations->as_int();
    } else if (seconds != nullptr || evaluations != nullptr ||
               target != nullptr) {
      requested.max_generations = std::numeric_limits<int>::max();
    }
    if (seconds != nullptr) requested.max_seconds = seconds->as_number();
    if (evaluations != nullptr) {
      requested.max_evaluations = evaluations->as_i64();
    }
    if (target != nullptr) requested.target_objective = target->as_number();
    ga::StopCondition stop;
    {
      std::lock_guard lock(config_mutex_);
      stop = config_.clamp(requested);
    }
    const Json* priority_field = request.find("priority");
    const int priority = priority_field ? priority_field->as_int() : 0;
    JobPtr job;
    try {
      job = table_.submit(canonical, priority, stop);
    } catch (const AdmissionError& e) {
      return error_response(e.what());
    }
    return ok_response()
        .set("id", Json::integer(job->record.id))
        .set("state", Json::string(to_string(JobState::kQueued)));
  }

  if (op == "list") {
    Json jobs = Json::array();
    for (const JobRecord& record : table_.snapshot_all()) {
      jobs.push(job_to_json(record));
    }
    return ok_response().set("jobs", std::move(jobs));
  }

  if (op == "status" || op == "wait") {
    const long long id = job_id();
    const JobPtr job = table_.find(id);
    if (job == nullptr) {
      return error_response("unknown job id " + std::to_string(id));
    }
    bool timed_out = false;
    if (op == "wait") {
      const Json* timeout = request.find("timeout");
      timed_out =
          !table_.wait_terminal_for(job, timeout ? timeout->as_number() : 0);
    }
    Json response =
        ok_response().set("job", job_to_json(table_.snapshot(id)));
    if (timed_out) response.set("timed_out", Json::boolean(true));
    return response;
  }

  if (op == "watch") {
    const long long id = job_id();
    const JobPtr job = table_.find(id);
    if (job == nullptr) {
      return error_response("unknown job id " + std::to_string(id));
    }
    // Ack, then stream: replay the log from the start (watch attaches
    // late without losing events), then follow appends until job_end.
    streamed = true;
    if (!write_line(connection_fd,
                    ok_response().set("id", Json::integer(id)).dump())) {
      return Json();
    }
    std::size_t cursor = 0;
    std::vector<std::string> lines;
    while (table_.follow_log(job, cursor, lines)) {
      for (const std::string& telemetry : lines) {
        if (!write_line(connection_fd, telemetry)) return Json();
      }
    }
    return Json();
  }

  if (op == "cancel") {
    const long long id = job_id();
    const std::optional<JobState> state = table_.request_cancel(id);
    if (!state) return error_response("unknown job id " + std::to_string(id));
    return ok_response().set("state", Json::string(to_string(*state)));
  }

  if (op == "drain") {
    const int cancelled = drain();
    return ok_response().set("cancelled", Json::integer(cancelled));
  }

  auto session_id = [&]() -> long long {
    const Json* id = request.find("session");
    if (id == nullptr) throw std::invalid_argument(op + " needs a session");
    return id->as_i64();
  };

  if (op == "session_open") {
    const std::string instance = request.string_or("instance", "");
    if (instance.empty()) {
      return error_response("session_open needs an instance");
    }
    session::SessionConfig config;
    if (const Json* solver = request.find("solver")) {
      config.solver = solver->as_string();
    }
    if (const Json* generations = request.find("generations")) {
      config.replan_generations = generations->as_int();
    }
    if (const Json* evaluations = request.find("evaluations")) {
      config.replan_evaluations = evaluations->as_i64();
    }
    if (const Json* slo = request.find("slo")) {
      config.slo_seconds = slo->as_number();
    }
    if (const Json* seed = request.find("seed")) {
      config.seed = seed->as_u64();
    }
    if (const Json* warm = request.find("warm")) {
      config.warm.enabled = warm->as_bool();
    }
    if (const Json* immigrants = request.find("immigrants")) {
      config.warm.immigrant_fraction = immigrants->as_number();
    }
    long long id = 0;
    try {
      // Resolving the instance and the opening solve both run on this
      // connection thread (the solve under a session slot); a bad
      // instance or solver spec is a structured error, not a dead
      // session.
      id = sessions_.open(ga::resolve_job_shop_instance(instance),
                          std::move(config));
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
    const session::SessionManager::BestView view = sessions_.best(id);
    return ok_response()
        .set("session", Json::integer(id))
        .set("best", Json::number(view.best))
        .set("events", Json::integer(view.events));
  }

  if (op == "session_event") {
    const long long id = session_id();
    try {
      const session::Event event = session::Event::from_json(request);
      const session::EventReply reply = sessions_.apply(id, event);
      Json response = ok_response().set("session", Json::integer(id));
      // Named: members() returns a reference into this object, so a
      // temporary would dangle under the range-for.
      const Json reply_json = reply.to_json(true);
      for (const Json::Member& member : reply_json.members()) {
        response.set(member.first, member.second);
      }
      return response;
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
  }

  if (op == "session_best") {
    const long long id = session_id();
    try {
      const session::SessionManager::BestView view = sessions_.best(id);
      return ok_response()
          .set("session", Json::integer(id))
          .set("best", Json::number(view.best))
          .set("now", Json::integer(view.now))
          .set("events", Json::integer(view.events))
          .set("plan_hash", Json::uinteger(view.plan_hash));
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
  }

  if (op == "session_close") {
    const long long id = session_id();
    try {
      const session::SessionManager::CloseResult closed = sessions_.close(id);
      return ok_response()
          .set("session", Json::integer(id))
          .set("events", Json::integer(closed.events))
          .set("transcript", Json::string(closed.transcript))
          .set("transcript_hash", Json::uinteger(closed.transcript_hash));
    } catch (const std::exception& e) {
      return error_response(e.what());
    }
  }

  if (op == "info") {
    Json config = Json::object();
    {
      std::lock_guard lock(config_mutex_);
      config.set("socket", Json::string(config_.socket_path))
          .set("workers", Json::integer(config_.workers))
          .set("session_workers", Json::integer(config_.session_workers))
          .set("max_queued", Json::integer(config_.max_queued))
          .set("telemetry_every", Json::integer(config_.telemetry_every))
          .set("max_generations", Json::integer(config_.max_generations))
          .set("max_seconds", Json::number(config_.max_seconds))
          .set("max_evaluations", Json::integer(config_.max_evaluations));
    }
    const std::array<int, 5> counts = table_.counts();
    Json jobs = Json::object();
    jobs.set("queued", Json::integer(counts[0]))
        .set("running", Json::integer(counts[1]))
        .set("done", Json::integer(counts[2]))
        .set("failed", Json::integer(counts[3]))
        .set("cancelled", Json::integer(counts[4]));
    const obs::MetricsSnapshot snapshot = registry_.snapshot();
    auto total = [&](const char* name) {
      const std::uint64_t* value = snapshot.counter(name);
      return Json::uinteger(value != nullptr ? *value : 0);
    };
    Json totals = Json::object();
    totals.set("admitted", total("svc.jobs.admitted"))
        .set("completed", total("svc.jobs.completed"))
        .set("failed", total("svc.jobs.failed"))
        .set("cancelled", total("svc.jobs.cancelled"))
        .set("rejected", total("svc.jobs.rejected"));
    Json latency = Json::object();
    for (const auto& [name, key] :
         {std::pair<const char*, const char*>{"svc.job.queue_ns", "queue"},
          {"svc.job.run_ns", "run"},
          {"svc.job.total_ns", "total"}}) {
      const obs::HistogramSnapshot* h = snapshot.histogram(name);
      if (h == nullptr || h->count == 0) continue;
      latency.set(key, Json::object()
                           .set("p50", Json::number(h->percentile(50) / 1e9))
                           .set("p95", Json::number(h->percentile(95) / 1e9))
                           .set("p99", Json::number(h->percentile(99) / 1e9)));
    }
    return ok_response()
        .set("config", std::move(config))
        .set("build_type", Json::string(PSGA_BUILD_TYPE))
        .set("uptime_seconds", Json::number(now_seconds() - start_seconds_))
        .set("jobs", std::move(jobs))
        .set("sessions", Json::integer(sessions_.active()))
        .set("totals", std::move(totals))
        .set("latency", std::move(latency))
        .set("max_request_bytes", Json::integer(kMaxRequestBytes))
        .set("draining", Json::boolean(table_.draining()));
  }

  if (op == "stats") {
    // The whole registry, merged: queue/job metrics today, whatever the
    // daemon grows tomorrow — psgactl stats renders this payload.
    return ok_response()
        .set("uptime_seconds", Json::number(now_seconds() - start_seconds_))
        .set("metrics", exp::metrics_to_json(registry_.snapshot()));
  }

  return error_response("unknown op '" + op + "'");
}

}  // namespace psga::svc
