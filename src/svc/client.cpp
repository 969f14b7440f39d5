#include "src/svc/client.h"

#include "src/exp/telemetry.h"

namespace psga::svc {

using exp::Json;

Client::Client(const std::string& socket_path)
    : fd_([&] {
        try {
          return unix_connect(socket_path);
        } catch (const std::exception& e) {
          throw TransportError(e.what());
        }
      }()),
      reader_(fd_.get()) {}

Json Client::read_response() {
  std::string line;
  if (!reader_.read_line(line)) {
    throw TransportError("connection closed by server");
  }
  Json response;
  try {
    response = Json::parse(line);
  } catch (const std::exception& e) {
    throw TransportError(std::string("malformed server line: ") + e.what());
  }
  const Json* ok = response.find("ok");
  if (ok == nullptr) throw ServiceError("server line has no ok: " + line);
  if (!ok->as_bool()) {
    throw ServiceError(response.string_or("error", "unspecified server error"));
  }
  return response;
}

Json Client::request(const Json& request_line) {
  Json stamped = Json::object();
  stamped.set("schema_version",
              Json::integer(exp::kTelemetrySchemaVersion));
  for (const Json::Member& member : request_line.members()) {
    stamped.set(member.first, member.second);
  }
  if (!write_line(fd_.get(), stamped.dump())) {
    throw TransportError("connection lost while sending request");
  }
  return read_response();
}

long long Client::submit(const std::string& spec,
                         const SubmitOptions& options) {
  const Json response = request(submit_request(spec, options));
  const Json* id = response.find("id");
  if (id == nullptr) throw ServiceError("submit response has no id");
  return id->as_i64();
}

std::vector<JobRecord> Client::list() {
  const Json response = request(simple_request("list"));
  std::vector<JobRecord> records;
  if (const Json* jobs = response.find("jobs"); jobs != nullptr) {
    for (const Json& job : jobs->items()) {
      records.push_back(job_from_json(job));
    }
  }
  return records;
}

JobRecord Client::status(long long id) {
  const Json response = request(id_request("status", id));
  const Json* job = response.find("job");
  if (job == nullptr) throw ServiceError("status response has no job");
  return job_from_json(*job);
}

JobRecord Client::wait(long long id) {
  const Json response = request(id_request("wait", id));
  const Json* job = response.find("job");
  if (job == nullptr) throw ServiceError("wait response has no job");
  return job_from_json(*job);
}

std::optional<JobRecord> Client::wait_for(long long id, double seconds) {
  Json line = id_request("wait", id);
  if (seconds > 0) line.set("timeout", Json::number(seconds));
  const Json response = request(line);
  if (response.find("timed_out") != nullptr) return std::nullopt;
  const Json* job = response.find("job");
  if (job == nullptr) throw ServiceError("wait response has no job");
  return job_from_json(*job);
}

JobRecord Client::watch(long long id,
                        const std::function<void(const Json&)>& on_line) {
  request(id_request("watch", id));  // the ack; telemetry lines follow
  for (;;) {
    std::string line;
    if (!reader_.read_line(line)) {
      throw TransportError("connection lost mid-watch");
    }
    Json record;
    try {
      record = Json::parse(line);
    } catch (const std::exception& e) {
      throw TransportError(std::string("malformed telemetry line: ") +
                           e.what());
    }
    if (on_line) on_line(record);
    if (record.string_or("event", "") == "job_end") break;
  }
  return status(id);
}

JobState Client::cancel(long long id) {
  const Json response = request(id_request("cancel", id));
  const std::optional<JobState> state =
      job_state_from_string(response.string_or("state", ""));
  if (!state) throw ServiceError("cancel response has no state");
  return *state;
}

int Client::drain() {
  const Json response = request(simple_request("drain"));
  return response.integer_or("cancelled", 0);
}

void Client::ping() { request(simple_request("ping")); }

Json Client::info() { return request(simple_request("info")); }

Json Client::stats() { return request(simple_request("stats")); }

long long Client::session_open(const std::string& instance,
                               const SessionOptions& options) {
  const Json response = request(session_open_request(instance, options));
  const Json* session = response.find("session");
  if (session == nullptr) {
    throw ServiceError("session_open response has no session");
  }
  return session->as_i64();
}

Json Client::session_event(long long session, const Json& event_fields) {
  Json line = Json::object();
  line.set("op", Json::string("session_event"))
      .set("session", Json::integer(session));
  for (const Json::Member& member : event_fields.members()) {
    line.set(member.first, member.second);
  }
  return request(line);
}

Json Client::session_best(long long session) {
  return request(Json::object()
                     .set("op", Json::string("session_best"))
                     .set("session", Json::integer(session)));
}

Json Client::session_close(long long session) {
  return request(Json::object()
                     .set("op", Json::string("session_close"))
                     .set("session", Json::integer(session)));
}

}  // namespace psga::svc
