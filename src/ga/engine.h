// The unified engine interface behind every parallel GA model.
//
// PR 1 unified *evaluation* behind psga::ga::Evaluator; this header makes
// the same move one layer up, at the engine boundary. Every engine —
// simple, master-slave, cellular, island, islands-of-cellular, quantum,
// memetic, cluster — implements Engine, so cross-model experiments drive
// one API:
//
//   auto engine = make_engine(problem, config);   // or Solver::build(spec)
//   RunResult r = engine->run(StopCondition::generations(200));
//
// The base class owns the run loop that the engines used to duplicate:
// stop-condition checks (generations / wall-clock / target / stagnation /
// evaluation budget), convergence-history recording, and observer
// notification. Engines only provide init() / step() plus introspection;
// an engine whose execution model has no step boundary (the in-process
// cluster) overrides run() wholesale.
#pragma once

#include <memory>

#include "src/ga/genome.h"
#include "src/ga/result.h"
#include "src/ga/stop.h"
#include "src/obs/trace.h"

namespace psga::ga {

class Engine;

/// Snapshot handed to RunObserver after every generation.
struct GenerationEvent {
  int generation = 0;
  double best_objective = 0.0;
  long long evaluations = 0;
  double seconds = 0.0;  ///< elapsed since run() started
};

/// One migrant delivered between islands (island-structured engines).
struct MigrationEvent {
  int epoch = 0;
  int from = 0;
  int to = 0;
  double objective = 0.0;  ///< objective of the migrant
};

/// Observer/callback hooks for telemetry, early stopping and
/// checkpointing. All callbacks run on the thread driving the engine's
/// run loop; default implementations do nothing.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// Fired after init() and after every step(). Return false to stop the
  /// run early (the engine finalizes its result normally).
  virtual bool on_generation(const Engine& engine,
                             const GenerationEvent& event) {
    (void)engine;
    (void)event;
    return true;
  }

  /// Fired whenever the best-so-far objective improves (including the
  /// initial population's best).
  virtual void on_improvement(const Engine& engine,
                              const GenerationEvent& event) {
    (void)engine;
    (void)event;
  }

  /// Fired per migrant delivered by an island-structured engine.
  virtual void on_migration(const MigrationEvent& event) { (void)event; }
};

class Engine {
 public:
  virtual ~Engine() = default;

  // --- stepwise API -------------------------------------------------------
  /// Re-seeds from the configured seed and rebuilds the population, so a
  /// second run() replays the first. Evaluators and the cache are built
  /// once, at construction, and persist across runs (a rerun replays
  /// against a warm cache). Engines that evaluate at init (see
  /// evaluates_on_init) have a valid best() afterwards.
  virtual void init() = 0;
  /// One generation of the engine's evolutionary model.
  virtual void step() = 0;

  // --- introspection ------------------------------------------------------
  // Scalar accessors are safe at any time (0 before init()); the
  // reference-returning ones (best(), individual()) are only valid once
  // init() has run and — for engines that evaluate lazily — after the
  // first step().
  virtual int generation() const = 0;
  virtual double best_objective() const = 0;
  virtual const Genome& best() const = 0;
  /// Fitness evaluations since the last init().
  virtual long long evaluations() const = 0;

  /// Population introspection (checkpointing, diversity telemetry). An
  /// engine without an inspectable population (the cluster engine while
  /// its ranks run) reports size 0.
  virtual int population_size() const = 0;
  virtual const Genome& individual(int i) const = 0;
  virtual double objective_of(int i) const = 0;

  /// Injects a full initial population for the next init()/run(): the
  /// engine consumes the genomes in order (truncating at its population
  /// size, padding any shortfall with its own random genomes — see
  /// GaConfig::initial_population). Island engines deal them round-robin
  /// across islands. Returns false when the engine's representation
  /// cannot host foreign genomes (quantum qubit chromosomes, cluster
  /// ranks) — callers fall back to a cold start.
  virtual bool seed_population(std::vector<Genome> genomes) {
    (void)genomes;
    return false;
  }

  /// Snapshot of the current population via the introspection API,
  /// sorted best-first (stable, so equal objectives keep population
  /// order). The warm-start export: feed it back through
  /// seed_population() / RunResult::population to chain runs.
  PopulationSection population_snapshot() const;

  /// The evaluation cache behind this engine's evaluators (null when
  /// caching is off): the handle its config carried at construction,
  /// kept for the engine's lifetime, so it is the same cache before
  /// init() and after every run.
  EvalCachePtr eval_cache_shared() const { return eval_cache_; }
  const EvalCache* eval_cache() const { return eval_cache_.get(); }

  /// The metrics registry this engine records into (never null once the
  /// engine is constructed — every engine ensures one on its config) and
  /// the opt-in stage tracer (null unless `trace=on`). Shared handles:
  /// outer engines hand the same objects to their inner engines.
  obs::RegistryPtr metrics_shared() const { return metrics_; }
  std::shared_ptr<obs::Tracer> tracer_shared() const { return tracer_; }

  // --- running ------------------------------------------------------------
  /// Full run under `stop`. The default implementation is the shared
  /// init/step loop; `stop` also replaces the engine's configured
  /// termination so generation-indexed schedules (variable mutation,
  /// measurement-noise annealing) see the true horizon.
  virtual RunResult run(const StopCondition& stop);

  /// Full run under the engine's configured termination.
  RunResult run() { return run(stop_default()); }

  /// The stop condition run() uses when none is given (the engine
  /// config's termination).
  virtual StopCondition stop_default() const = 0;

  /// Installs an observer for subsequent runs (nullptr to clear). Not
  /// owned; must outlive the run.
  void set_observer(RunObserver* observer) { observer_ = observer; }
  RunObserver* observer() const { return observer_; }

 protected:
  /// Called by run() before init() with the effective stop condition;
  /// engines sync their config's termination here.
  virtual void prepare_run(const StopCondition& stop) { (void)stop; }

  /// Engines whose init() leaves best() undefined (no evaluation until
  /// the first step, e.g. the quantum engine) return false: the run loop
  /// then skips the generation-0 history entry and target check.
  virtual bool evaluates_on_init() const { return true; }

  /// Populates engine-specific RunResult sections after the loop.
  virtual void fill_sections(RunResult& result) const { (void)result; }

  /// Engines call this from their constructor after ensuring a registry
  /// on their config (obs::ensure_registry), with the cache handle their
  /// config carries (null when off); run() reports per-run deltas of
  /// both in RunResult::metrics and RunResult::cache.
  void attach(obs::RegistryPtr metrics, std::shared_ptr<obs::Tracer> tracer,
              EvalCachePtr eval_cache) {
    metrics_ = std::move(metrics);
    tracer_ = std::move(tracer);
    eval_cache_ = std::move(eval_cache);
  }

  /// The cache and registry counters at the start of a run. A result
  /// reports the deltas since then, so it is this run's share even when
  /// the cache or registry outlives the run (engine reuse, one cache
  /// handed to several engines, a daemon registry shared across jobs).
  struct RunBaseline {
    EvalCacheStats cache;
    obs::MetricsSnapshot metrics;
  };
  RunBaseline run_baseline() const;
  /// The run finalization every run() ends with: fills result.cache
  /// (all zeros without a cache, so readers never branch on it) and
  /// result.metrics, with the cache's own exact counters folded in as
  /// eval.cache.*.
  void finish_run(RunResult& result, const RunBaseline& baseline) const;

  RunObserver* observer_ = nullptr;
  obs::RegistryPtr metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  EvalCachePtr eval_cache_;
};

using EnginePtr = std::unique_ptr<Engine>;

}  // namespace psga::ga
