// Engine configuration shared by all GA models.
#pragma once

#include <cstdint>
#include <memory>

#include "src/ga/crossover.h"
#include "src/ga/evaluator.h"
#include "src/ga/mutation.h"
#include "src/ga/problem.h"
#include "src/ga/selection.h"
#include "src/ga/stop.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace psga::ga {

/// The survey's two fitness transforms (Section III.A).
enum class FitnessTransform {
  kInverse,    ///< Eq. (2): FIT = 1 / F
  kReference,  ///< Eq. (1): FIT = max(Fbar - F, 0)
};

struct OperatorConfig {
  SelectionPtr selection;
  CrossoverPtr crossover;
  MutationPtr mutation;
  double crossover_rate = 0.9;
  double mutation_rate = 0.2;
  /// Variable mutation probability ([32]): if >= 0, the rate is linearly
  /// interpolated from mutation_rate to this value over the run.
  double mutation_rate_final = -1.0;
};

/// Default operators for a problem's encoding: binary tournament, a
/// kind-appropriate crossover (OX for permutations, JOX for repetition
/// sequences, parameterized uniform for pure key genomes) and swap (or
/// key-creep) mutation — with an assignment mutation composed in when the
/// genome has an assignment chromosome.
OperatorConfig default_operators(const Problem& problem);

struct GaConfig;

/// Demotes `base` for an inner engine stepped from a pool thread (an
/// island, a cluster rank): the non-reentrant ThreadPool must not be
/// entered again, so every backend becomes kSerial; `shared_cache` (may
/// be null) is wired in so all inner engines memoize into one table.
/// Island-structured engines MUST build their inner configs through this
/// helper.
GaConfig inner_engine_config(GaConfig base, EvalCachePtr shared_cache);

struct GaConfig {
  int population = 100;
  int elites = 1;  ///< individuals copied unchanged to the next generation
  /// Fraction of each new generation drawn fresh at random — the
  /// "immigration" of Huang et al. [24] (their c%).
  double immigration_fraction = 0.0;
  /// Niche penalty (survey §I: "hire niche penalty in selection to keep
  /// the diversity"): when > 0, fitness sharing divides each individual's
  /// fitness by its niche count, with niches defined by Hamming distance
  /// below this radius on the sequencing chromosome. O(P²) per
  /// generation, as the survey warns ("may raise the complexity").
  int niche_radius = 0;
  double niche_alpha = 1.0;  ///< sharing-function shape exponent
  /// Warm-start individuals (an NEH or dispatching-rule solution, a whole
  /// population from the session layer or sweep chaining). init()
  /// consumes them in order, truncating at `population` and padding any
  /// shortfall with random genomes. Engines expose this through
  /// Engine::seed_population so spec-built engines can be seeded after
  /// construction.
  std::vector<Genome> initial_population;
  OperatorConfig ops;
  /// Which runtime evaluates fitness batches (see evaluator.h). Engines
  /// that already parallelize at a coarser level (islands, cluster ranks)
  /// force this to kSerial for their inner engines.
  EvalBackend eval_backend = EvalBackend::kSerial;
  /// Objective memoization by genome key (see eval_cache.h); off by
  /// default. Traces are bit-identical with the cache on or off.
  EvalCacheConfig eval_cache;
  /// Pre-built cache to share across engines — island-structured engines
  /// set this on their inner configs so elites and migrants hit across
  /// subpopulations. When null and eval_cache.mode != kOff, the engine
  /// builds its own cache from eval_cache.
  EvalCachePtr shared_eval_cache;
  FitnessTransform transform = FitnessTransform::kInverse;
  double reference_objective = 0.0;  ///< Fbar for FitnessTransform::kReference
  Termination termination;
  std::uint64_t seed = 1;
  /// Metrics registry this engine records into (always-on counters and
  /// histograms — see src/obs/metrics.h). When null the engine creates
  /// its own at construction; island-structured engines propagate theirs
  /// to inner engines via inner_engine_config so a run scrapes one
  /// registry. Observation never alters the evolutionary trace.
  obs::RegistryPtr metrics;
  /// Stage tracer (opt-in, spec token `trace=on`); null = no tracing.
  /// Shared with inner engines the same way as `metrics`.
  std::shared_ptr<obs::Tracer> tracer;
};

}  // namespace psga::ga
