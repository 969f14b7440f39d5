// The unified batched fitness-evaluation engine shared by every GA model.
//
// The survey's central axis is *where* fitness evaluation is parallelized
// (master-slave, cellular, island); this class is the single place that
// axis lives. An engine hands a population to evaluate() and the chosen
// backend fills the objective vector:
//   kSerial     — the calling thread: one lane, one reusable Workspace;
//   kThreadPool — the library thread pool: one static slice + Workspace
//                 per lane (the master-slave model of Table III).
// Each lane makes exactly one Problem::objective_batch call over its whole
// slice. Both backends are synchronous: evaluate() returns with every
// objective written. Objectives are pure, and the slice→lane mapping is
// deterministic, so results are bit-identical across backends and thread
// counts; Workspaces only recycle allocations, never carry state between
// genomes.
//
// An optional EvalCache (set_cache) memoizes objectives by EvalCache::key;
// lookups and inserts happen on the calling thread in genome order, only
// the misses reach the backend, and decode_calls() reports how many
// genomes were actually decoded. Several evaluators may share one cache
// (islands, cluster ranks): cached values come from the same pure
// objectives, so sharing never perturbs a trace.
//
// An Evaluator instance is NOT re-entrant: it owns one Workspace per lane.
// Engines that evaluate from several threads at once (islands stepping in
// parallel) give each inner engine its own serial Evaluator instead.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/ga/eval_cache.h"
#include "src/ga/problem.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/thread_pool.h"

namespace psga::ga {

/// Which runtime executes fitness batches (selected via GaConfig).
enum class EvalBackend {
  kSerial,      ///< calling thread only
  kThreadPool,  ///< the library thread pool (master-slave slaves)
};

class Evaluator {
 public:
  /// `pool` may be null — the library default pool is used (only relevant
  /// for the thread-pool backend).
  explicit Evaluator(ProblemPtr problem,
                     EvalBackend backend = EvalBackend::kSerial,
                     par::ThreadPool* pool = nullptr);

  /// Fills objectives[i] = problem objective of genomes[i]. Spans must
  /// have equal size. Counts toward evaluations().
  void evaluate(std::span<const Genome> genomes, std::span<double> objectives);

  /// Single-genome convenience on lane 0's Workspace (local search, B&B
  /// comparisons). Counts toward evaluations().
  double evaluate_one(const Genome& genome);

  /// Attaches (or clears) the memoization cache. The cache may be shared
  /// with other evaluators.
  void set_cache(EvalCachePtr cache);

  /// Attaches the observability sinks (both may be null). Handles into
  /// `metrics` are resolved once, here — the hot path then costs two
  /// clock reads plus a few relaxed adds per *batch*, never per genome.
  /// Metric names: eval.decode_ns / eval.batch_size / eval.decoded_genomes
  /// on every decode batch, and eval.cache_ns (the filter plus the
  /// inserts, decode excluded) once per evaluate() call with a cache.
  /// Spans: decode, cache_filter.
  void set_obs(obs::RegistryPtr metrics, std::shared_ptr<obs::Tracer> tracer);
  const EvalCache* cache() const { return cache_.get(); }
  /// Shared handle for per-run stat snapshots (Engine::eval_cache_shared).
  EvalCachePtr cache_ptr() const { return cache_; }

  /// Total genomes evaluated through this Evaluator — the *logical*
  /// count: a cache hit counts exactly once, same as a decode, so
  /// evaluation budgets see identical numbers with the cache on or off.
  long long evaluations() const noexcept { return evaluations_; }

  /// Genomes actually decoded (cache misses reaching the backend).
  /// Equals evaluations() when no cache is attached.
  long long decode_calls() const noexcept { return decode_calls_; }

  EvalBackend backend() const noexcept { return backend_; }
  const Problem& problem() const noexcept { return *problem_; }

  /// Worker-lane count of the active backend (1 for kSerial).
  int lanes() const noexcept { return static_cast<int>(workspaces_.size()); }

 private:
  Workspace& workspace(std::size_t lane) { return *workspaces_[lane]; }
  /// Backend dispatch without cache filtering (the decode path).
  /// Instrumented wrapper over raw_evaluate_impl.
  void raw_evaluate(std::span<const Genome> genomes,
                    std::span<double> objectives);
  void raw_evaluate_impl(std::span<const Genome> genomes,
                         std::span<double> objectives);

  ProblemPtr problem_;
  EvalBackend backend_;
  par::ThreadPool* pool_;
  std::vector<std::unique_ptr<Workspace>> workspaces_;  // one per lane
  EvalCachePtr cache_;
  long long evaluations_ = 0;
  long long decode_calls_ = 0;
  // Reusable scratch for the cache-filtering path. The key and miss
  // buffers only ever grow, so a warmed filter allocates nothing.
  std::vector<std::uint64_t> cache_keys_;  ///< per genome of the batch
  std::vector<std::size_t> miss_slots_;
  std::vector<Genome> miss_genomes_;
  std::vector<double> miss_values_;
  // Observability sinks (set_obs). The shared handles keep the registry
  // and tracer alive; the raw pointers are the pre-resolved hot-path
  // handles (stable for the registry's lifetime).
  obs::RegistryPtr metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  obs::Histogram* decode_ns_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* decoded_genomes_ = nullptr;
  obs::Histogram* cache_ns_ = nullptr;
};

}  // namespace psga::ga
