#include "src/svc/protocol.h"

#include <stdexcept>

#include "src/exp/telemetry.h"

namespace psga::svc {

using exp::Json;

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::optional<JobState> job_state_from_string(const std::string& text) {
  if (text == "queued") return JobState::kQueued;
  if (text == "running") return JobState::kRunning;
  if (text == "done") return JobState::kDone;
  if (text == "failed") return JobState::kFailed;
  if (text == "cancelled") return JobState::kCancelled;
  return std::nullopt;
}

Json job_to_json(const JobRecord& record) {
  Json job = Json::object();
  job.set("id", Json::integer(record.id))
      .set("state", Json::string(to_string(record.state)))
      .set("spec", Json::string(record.spec))
      .set("priority", Json::integer(record.priority));
  Json stop = Json::object();
  stop.set("generations", Json::integer(record.stop.max_generations));
  if (record.stop.max_seconds > 0) {
    stop.set("seconds", Json::number(record.stop.max_seconds));
  }
  if (record.stop.max_evaluations > 0) {
    stop.set("evaluations", Json::integer(record.stop.max_evaluations));
  }
  if (record.stop.target_objective >= 0) {
    stop.set("target", Json::number(record.stop.target_objective));
  }
  job.set("stop", std::move(stop));
  if (!record.error.empty()) job.set("error", Json::string(record.error));
  if (record.state == JobState::kDone ||
      record.state == JobState::kCancelled) {
    // Cancelled jobs report the best-so-far at the stop boundary — the
    // anytime answer the online-replanning workload will lean on.
    job.set("best_objective", Json::number(record.best_objective))
        .set("generations", Json::integer(record.generations))
        .set("evaluations", Json::integer(record.evaluations));
  }
  if (record.seconds > 0) job.set("seconds", Json::number(record.seconds));
  if (record.cache) {
    job.set("cache",
            Json::object()
                .set("hits", Json::integer(record.cache->hits))
                .set("misses", Json::integer(record.cache->misses))
                .set("inserts", Json::integer(record.cache->inserts))
                .set("evictions", Json::integer(record.cache->evictions)));
  }
  return job;
}

JobRecord job_from_json(const Json& json) {
  const Json* id = json.find("id");
  const Json* state = json.find("state");
  if (id == nullptr || state == nullptr) {
    throw std::invalid_argument("job record missing id/state: " + json.dump());
  }
  const std::optional<JobState> parsed =
      job_state_from_string(state->as_string());
  if (!parsed) {
    throw std::invalid_argument("job record has unknown state '" +
                                state->as_string() + "'");
  }
  JobRecord record;
  record.id = id->as_i64();
  record.state = *parsed;
  record.spec = json.string_or("spec", "");
  record.priority = json.integer_or("priority", 0);
  record.error = json.string_or("error", "");
  record.best_objective = json.number_or("best_objective", 0.0);
  record.generations = json.integer_or("generations", 0);
  record.evaluations = json.integer_or("evaluations", 0LL);
  record.seconds = json.number_or("seconds", 0.0);
  if (const Json* cache = json.find("cache"); cache != nullptr) {
    ga::EvalCacheStats stats;
    stats.hits = cache->integer_or("hits", 0LL);
    stats.misses = cache->integer_or("misses", 0LL);
    stats.inserts = cache->integer_or("inserts", 0LL);
    stats.evictions = cache->integer_or("evictions", 0LL);
    record.cache = stats;
  }
  if (const Json* stop = json.find("stop"); stop != nullptr) {
    record.stop.max_generations =
        stop->integer_or("generations", record.stop.max_generations);
    record.stop.max_seconds = stop->number_or("seconds", 0.0);
    record.stop.max_evaluations = stop->integer_or("evaluations", 0LL);
    record.stop.target_objective = stop->number_or("target", -1.0);
  }
  return record;
}

Json submit_request(const std::string& spec, const SubmitOptions& options) {
  Json request = Json::object();
  request.set("op", Json::string("submit")).set("spec", Json::string(spec));
  if (options.priority != 0) {
    request.set("priority", Json::integer(options.priority));
  }
  if (options.generations) {
    request.set("generations", Json::integer(*options.generations));
  }
  if (options.seconds) request.set("seconds", Json::number(*options.seconds));
  if (options.evaluations) {
    request.set("evaluations", Json::integer(*options.evaluations));
  }
  if (options.target) request.set("target", Json::number(*options.target));
  return request;
}

Json session_open_request(const std::string& instance,
                          const SessionOptions& options) {
  Json request = Json::object();
  request.set("op", Json::string("session_open"))
      .set("instance", Json::string(instance));
  if (!options.solver.empty()) {
    request.set("solver", Json::string(options.solver));
  }
  if (options.generations) {
    request.set("generations", Json::integer(*options.generations));
  }
  if (options.evaluations) {
    request.set("evaluations", Json::integer(*options.evaluations));
  }
  if (options.slo_seconds) {
    request.set("slo", Json::number(*options.slo_seconds));
  }
  if (options.seed) request.set("seed", Json::uinteger(*options.seed));
  if (options.warm) request.set("warm", Json::boolean(*options.warm));
  if (options.immigrants) {
    request.set("immigrants", Json::number(*options.immigrants));
  }
  return request;
}

Json simple_request(const std::string& op) {
  return Json::object().set("op", Json::string(op));
}

Json id_request(const std::string& op, long long id) {
  return Json::object()
      .set("op", Json::string(op))
      .set("id", Json::integer(id));
}

Json ok_response() {
  return Json::object()
      .set("schema_version", Json::integer(exp::kTelemetrySchemaVersion))
      .set("ok", Json::boolean(true));
}

Json error_response(const std::string& message) {
  return Json::object()
      .set("schema_version", Json::integer(exp::kTelemetrySchemaVersion))
      .set("ok", Json::boolean(false))
      .set("error", Json::string(message));
}

}  // namespace psga::svc
