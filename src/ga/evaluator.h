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
// evaluate() is the one place that decides what to decode. A slot the
// caller marks known (an elite, or a child that neither crossed nor
// mutated) keeps the objective the caller wrote: the engine already holds
// it, so it is neither looked up nor decoded. The other slots go, as
// views, through the optional EvalCache (the last constructor argument),
// which memoizes objectives by EvalCache::key; lookups and inserts happen
// on the calling thread in genome order, only the misses reach the
// backend, and decode_calls() reports how many genomes were actually
// decoded. Several evaluators may share one cache (islands, cluster
// ranks): cached and inherited values come from the same pure objectives,
// so neither ever perturbs a trace.
//
// An Evaluator instance is NOT re-entrant: it owns one Workspace per lane.
// Engines that evaluate from several threads at once (islands stepping in
// parallel) give each inner engine its own serial Evaluator instead.
#pragma once

#include <cstdint>
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
  /// for the thread-pool backend). `cache` may be null (no memoization)
  /// and may be shared with other evaluators.
  explicit Evaluator(ProblemPtr problem,
                     EvalBackend backend = EvalBackend::kSerial,
                     par::ThreadPool* pool = nullptr,
                     EvalCachePtr cache = nullptr);

  /// Fills objectives[i] = problem objective of genomes[i]. Spans must
  /// have equal size; `known` is empty or holds one byte per genome. A
  /// slot whose known byte is nonzero keeps the objective the caller wrote
  /// into objectives[i]; it skips the cache and the decoder and counts
  /// toward eval.inherited. Every slot counts toward evaluations().
  void evaluate(std::span<const Genome> genomes, std::span<double> objectives,
                std::span<const std::uint8_t> known = {});

  /// Single-genome convenience on lane 0's Workspace (local search, B&B
  /// comparisons). Counts toward evaluations(), and a decode toward
  /// eval.decoded_genomes.
  double evaluate_one(const Genome& genome);

  /// Attaches the observability sinks (both may be null). Handles into
  /// `metrics` are resolved once, here — the hot path then costs two
  /// clock reads plus a few relaxed adds per *batch*, never per genome.
  /// Metric names: eval.decode_ns / eval.batch_size / eval.decoded_genomes
  /// on every decode batch (eval.decoded_genomes also on each decode of
  /// evaluate_one), eval.inherited per evaluate() call with known slots,
  /// and eval.cache_ns (the filter plus the inserts, decode
  /// excluded) once per evaluate() call with a cache. Spans: decode,
  /// cache_filter.
  void set_obs(obs::RegistryPtr metrics, std::shared_ptr<obs::Tracer> tracer);

  /// Total genomes evaluated through this Evaluator — the *logical*
  /// count: an inherited slot or a cache hit counts exactly once, same as
  /// a decode, so evaluation budgets see identical numbers however many
  /// genomes are decoded.
  long long evaluations() const noexcept { return evaluations_; }

  /// Genomes actually decoded (neither inherited nor cache hits).
  long long decode_calls() const noexcept { return decode_calls_; }

  EvalBackend backend() const noexcept { return backend_; }
  const Problem& problem() const noexcept { return *problem_; }

  /// Worker-lane count of the active backend (1 for kSerial).
  int lanes() const noexcept { return static_cast<int>(workspaces_.size()); }

 private:
  Workspace& workspace(std::size_t lane) { return *workspaces_[lane]; }
  /// Backend dispatch without cache filtering (the decode path).
  /// Instrumented wrapper over raw_evaluate_impl.
  void raw_evaluate(GenomeViews genomes, std::span<double> objectives);
  void raw_evaluate_impl(GenomeViews genomes, std::span<double> objectives);

  ProblemPtr problem_;
  EvalBackend backend_;
  par::ThreadPool* pool_;
  std::vector<std::unique_ptr<Workspace>> workspaces_;  // one per lane
  EvalCachePtr cache_;
  long long evaluations_ = 0;
  long long decode_calls_ = 0;
  // The slots evaluate() decodes, as views into the caller's genomes (a
  // view's offset is its slot), their decoded values and (with a cache)
  // their keys. Reused across calls, so a warmed Evaluator allocates
  // nothing.
  std::vector<const Genome*> miss_views_;
  std::vector<double> miss_values_;
  std::vector<std::uint64_t> miss_keys_;
  // Observability sinks (set_obs). The shared handles keep the registry
  // and tracer alive; the raw pointers are the pre-resolved hot-path
  // handles (stable for the registry's lifetime).
  obs::RegistryPtr metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  obs::Histogram* decode_ns_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* decoded_genomes_ = nullptr;
  obs::Counter* inherited_ = nullptr;
  obs::Histogram* cache_ns_ = nullptr;
};

}  // namespace psga::ga
