#include "src/ga/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace psga::ga {

PopulationSection Engine::population_snapshot() const {
  const int n = population_size();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return objective_of(a) < objective_of(b);
  });
  PopulationSection section;
  section.genomes.reserve(static_cast<std::size_t>(n));
  section.objectives.reserve(static_cast<std::size_t>(n));
  for (int i : order) {
    section.genomes.push_back(individual(i));
    section.objectives.push_back(objective_of(i));
  }
  return section;
}

RunResult Engine::run(const StopCondition& stop) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  prepare_run(stop);
  // Snapshot cache counters so RunResult::cache reports this run's delta
  // even when the cache outlives the run (engine reuse, a shared cache
  // handed to several engines). Engines build their cache once, at
  // construction; the held handle and the identity comparison below
  // guard the delta should one ever swap it mid-run (a freed address
  // cannot be reused while the handle lives, and a cache that was not
  // there before init() is fresh, so its zero baseline is correct).
  const EvalCachePtr pre_run_cache = eval_cache_shared();
  const EvalCacheStats cache_baseline =
      pre_run_cache != nullptr ? pre_run_cache->stats() : EvalCacheStats{};
  // Same baseline idiom for the metrics registry: the run reports its own
  // delta even when the registry outlives the run (engine reuse, a daemon
  // registry shared across jobs).
  const obs::RegistryPtr metrics = metrics_shared();
  const obs::MetricsSnapshot metrics_baseline =
      metrics != nullptr ? metrics->snapshot() : obs::MetricsSnapshot{};
  obs::Histogram* generation_ns =
      metrics != nullptr ? &metrics->histogram("engine.generation_ns")
                         : nullptr;
  obs::Tracer* const tracer = tracer_.get();
  init();

  RunResult result;
  bool has_best = evaluates_on_init();
  double stagnation_best = has_best ? best_objective() : 0.0;
  int stagnant = 0;

  auto notify = [&](bool improved) {
    if (observer_ == nullptr) return true;
    GenerationEvent event;
    event.generation = generation();
    event.best_objective = best_objective();
    event.evaluations = evaluations();
    event.seconds = elapsed();
    if (improved) observer_->on_improvement(*this, event);
    return observer_->on_generation(*this, event);
  };

  bool keep_going = true;
  if (has_best) {
    result.history.push_back(best_objective());
    keep_going = notify(/*improved=*/true);
  }

  while (keep_going && generation() < stop.max_generations) {
    if (stop.max_seconds > 0.0 && elapsed() >= stop.max_seconds) break;
    if (stop.max_evaluations > 0 && evaluations() >= stop.max_evaluations) {
      break;
    }
    if (has_best && stop.target_objective >= 0.0 &&
        best_objective() <= stop.target_objective) {
      break;
    }
    if (stop.stagnation_generations > 0 &&
        stagnant >= stop.stagnation_generations) {
      break;
    }
    {
      const obs::Span span(tracer, "generation");
      const auto step_start = std::chrono::steady_clock::now();
      step();
      if (generation_ns != nullptr) {
        generation_ns->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - step_start)
                .count()));
      }
    }
    result.history.push_back(best_objective());
    bool improved = false;
    if (!has_best || best_objective() < stagnation_best) {
      stagnation_best = best_objective();
      stagnant = 0;
      improved = true;
      has_best = true;
    } else {
      ++stagnant;
    }
    keep_going = notify(improved);
  }

  result.best = best();
  result.best_objective = best_objective();
  result.evaluations = evaluations();
  result.generations = generation();
  result.seconds = elapsed();
  fill_sections(result);
  if (const EvalCachePtr cache = eval_cache_shared()) {
    EvalCacheStats stats = cache->stats();
    if (cache == pre_run_cache) stats -= cache_baseline;
    result.cache = stats;
  } else {
    // Always engage the section: dashboards and reports read zeros
    // instead of special-casing a missing field.
    result.cache = EvalCacheStats{};
  }
  if (metrics != nullptr) {
    obs::MetricsSnapshot snapshot = metrics->snapshot();
    snapshot.subtract(metrics_baseline);
    // Fold the cache's own exact counters in so one snapshot carries the
    // whole story (no separate hot-path counting — the cache already
    // tallies these).
    snapshot.set_counter("eval.cache.hits",
                         static_cast<std::uint64_t>(result.cache->hits));
    snapshot.set_counter("eval.cache.misses",
                         static_cast<std::uint64_t>(result.cache->misses));
    snapshot.set_counter("eval.cache.inserts",
                         static_cast<std::uint64_t>(result.cache->inserts));
    snapshot.set_counter("eval.cache.evictions",
                         static_cast<std::uint64_t>(result.cache->evictions));
    result.metrics = std::move(snapshot);
  }
  return result;
}

}  // namespace psga::ga
