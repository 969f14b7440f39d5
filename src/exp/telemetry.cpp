#include "src/exp/telemetry.h"

namespace psga::exp {

void TelemetrySink::write(const Json& line) {
  std::string text;
  if (line.is_object() && line.find("schema_version") == nullptr) {
    // schema_version leads every record so consumers can dispatch on it
    // before touching any other field.
    Json stamped = Json::object();
    stamped.set("schema_version", Json::integer(kTelemetrySchemaVersion));
    for (const Json::Member& member : line.members()) {
      stamped.set(member.first, member.second);
    }
    text = stamped.dump();
  } else {
    text = line.dump();
  }
  std::lock_guard lock(mutex_);
  emit(text);
  ++lines_;
}

void TelemetrySink::emit(const std::string& text) { *out_ << text << '\n'; }

long long TelemetrySink::lines() const {
  std::lock_guard lock(mutex_);
  return lines_;
}

Json cache_to_json(const ga::EvalCacheStats& stats) {
  return Json::object()
      .set("hits", Json::integer(stats.hits))
      .set("misses", Json::integer(stats.misses))
      .set("inserts", Json::integer(stats.inserts))
      .set("evictions", Json::integer(stats.evictions));
}

ga::EvalCacheStats cache_from_json(const Json& json) {
  ga::EvalCacheStats stats;
  stats.hits = json.integer_or("hits", 0LL);
  stats.misses = json.integer_or("misses", 0LL);
  stats.inserts = json.integer_or("inserts", 0LL);
  stats.evictions = json.integer_or("evictions", 0LL);
  return stats;
}

bool CellObserver::on_generation(const ga::Engine& engine,
                                 const ga::GenerationEvent& event) {
  (void)engine;
  if (every_ > 0 && event.generation % every_ == 0) {
    sink_->write(Json::object()
                     .set("event", Json::string("generation"))
                     .set(id_key_, Json::integer(id_))
                     .set("generation", Json::integer(event.generation))
                     .set("best", Json::number(event.best_objective))
                     .set("evaluations", Json::integer(event.evaluations))
                     .set("seconds", Json::number(event.seconds)));
  }
  return true;
}

void CellObserver::on_improvement(const ga::Engine& engine,
                                  const ga::GenerationEvent& event) {
  (void)engine;
  sink_->write(Json::object()
                   .set("event", Json::string("improvement"))
                   .set(id_key_, Json::integer(id_))
                   .set("generation", Json::integer(event.generation))
                   .set("best", Json::number(event.best_objective)));
}

void CellObserver::on_migration(const ga::MigrationEvent& event) {
  sink_->write(Json::object()
                   .set("event", Json::string("migration"))
                   .set(id_key_, Json::integer(id_))
                   .set("epoch", Json::integer(event.epoch))
                   .set("from", Json::integer(event.from))
                   .set("to", Json::integer(event.to))
                   .set("objective", Json::number(event.objective)));
}

}  // namespace psga::exp
