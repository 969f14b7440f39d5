// JSONL telemetry for sweeps and the solver service: a thread-safe line
// sink plus the RunObserver that streams per-generation / improvement /
// migration events and final cell records.
//
// Schema (one JSON object per line, `event` discriminates; every line
// carries `schema_version` so the wire protocol and on-disk telemetry
// can evolve compatibly):
//
//   sweep_begin  sweep, cells, configs, reps, seed, base, axes[],
//                instances[]
//   run_begin    cell, config, instance, rep, seed, spec
//   generation   cell, generation, best, evaluations, seconds
//   improvement  cell, generation, best
//   migration    cell, epoch, from, to, objective
//   cell         cell, config, instance, rep, seed, spec, axes{},
//                ok, best_objective, generations, evaluations, seconds
//                [, cache{hits,misses,inserts,evictions}]
//                — or ok=false with `error` instead of the result fields
//   sweep_end    sweep, ok, failed, seconds
//
// The solver service (src/svc) reuses the same record shapes with `job`
// in place of `cell` and a final `job_end` record (docs/service.md): its
// event lines come from CellObserver too, and every `cache` object, in
// cell, job_end and job status records alike, from cache_to_json.
//
// Cell seeds are full-range uint64 and render as exact JSON integers.
// Lines from concurrent cells interleave, but each line is written
// atomically under the sink's mutex; per-cell event order is preserved
// because each cell runs on one thread. Timing fields (`seconds`) are
// wall-clock and therefore not reproducible run-to-run — everything
// else is a pure function of the spec.
#pragma once

#include <mutex>
#include <ostream>

#include "src/exp/json.h"
#include "src/ga/engine.h"

namespace psga::exp {

/// Version stamped into every telemetry line (and, via the service
/// protocol, every wire message). Bump when a record's meaning changes
/// incompatibly; consumers assert on it (ci.sh smoke validations do).
inline constexpr int kTelemetrySchemaVersion = 1;

/// Thread-safe JSONL writer. The default transport appends to a
/// caller-owned stream; subclasses override emit() to carry lines
/// elsewhere (the service's socket-backed job sink in src/svc/server.cpp).
class TelemetrySink {
 public:
  /// The stream is not owned and must outlive the sink.
  explicit TelemetrySink(std::ostream& out) : out_(&out) {}
  virtual ~TelemetrySink() = default;

  /// Stamps `schema_version` onto object lines, serializes, and emits
  /// the line atomically (one lock covers the count and the transport).
  void write(const Json& line);

  /// Lines written so far.
  long long lines() const;

 protected:
  /// For transport subclasses that do not write to a stream.
  TelemetrySink() = default;

  /// Delivers one serialized line (no trailing newline). Called under
  /// the sink mutex — implementations need no further serialization.
  virtual void emit(const std::string& text);

 private:
  std::ostream* out_ = nullptr;
  mutable std::mutex mutex_;
  long long lines_ = 0;
};

/// The `cache{hits,misses,inserts,evictions}` object of the records
/// above, and its reader (a missing counter reads 0).
Json cache_to_json(const ga::EvalCacheStats& stats);
ga::EvalCacheStats cache_from_json(const Json& json);

/// RunObserver streaming one run's events into a sink, each line keyed
/// `id_key: id` (`cell` in sweeps, `job` in the daemon). `every` thins
/// the per-generation stream (1 = every generation, 0 = none;
/// improvements and migrations always stream). on_generation never stops
/// the run; the daemon's override adds its cancel check.
class CellObserver : public ga::RunObserver {
 public:
  CellObserver(TelemetrySink& sink, long long id, int every = 1,
               const char* id_key = "cell")
      : sink_(&sink), id_key_(id_key), id_(id), every_(every) {}

  bool on_generation(const ga::Engine& engine,
                     const ga::GenerationEvent& event) override;
  void on_improvement(const ga::Engine& engine,
                      const ga::GenerationEvent& event) override;
  void on_migration(const ga::MigrationEvent& event) override;

 private:
  TelemetrySink* sink_;
  const char* id_key_;
  long long id_;
  int every_;
};

}  // namespace psga::exp
