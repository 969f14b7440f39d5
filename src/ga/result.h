// Run records returned by every engine.
//
// One RunResult type covers all seven engine families: the common core
// (best genome, convergence curve, budgets) plus optional typed sections
// for engine-specific extras — per-island data for the island-structured
// engines (island, cluster, hybrid, quantum) and measurement/collapse
// statistics for the quantum engine. A section is engaged only when the
// engine that produced the result populates it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/ga/eval_cache.h"
#include "src/ga/genome.h"
#include "src/obs/metrics.h"

namespace psga::ga {

/// Per-island extras of the island-structured engines (island GA, cluster
/// island GA, islands-of-cellular, quantum). For the cluster engine the
/// "islands" are MPI-style ranks.
struct IslandSection {
  /// Final best objective per island.
  std::vector<double> best;
  /// Final best genome per island (the Pareto candidates in [38]). Empty
  /// for engines that only track objectives per island.
  std::vector<Genome> best_genome;
  /// Per-island best-so-far convergence curves, one inner vector per
  /// island (empty when the engine does not record them).
  std::vector<std::vector<double>> history;
  /// Islands still alive at the end of the run; smaller than best.size()
  /// when stagnation-triggered merging ([29]) is enabled.
  int surviving = 0;
};

/// A population checkpoint (genomes + objectives, sorted best-first).
/// Produced by Engine::population_snapshot(); consumed by
/// Engine::seed_population() — the warm-start seam that lets the session
/// layer (and sweep chaining) carry a population from one run into the
/// next. Engaged by callers that need it, not by Engine::run itself:
/// copying every population would tax the common one-shot run.
struct PopulationSection {
  std::vector<Genome> genomes;
  std::vector<double> objectives;  ///< parallel to genomes
};

/// Measurement/collapse statistics of the quantum-inspired engine [28].
struct QuantumSection {
  /// Exploration noise level at the final measurement (annealed).
  double final_noise = 0.0;
  /// Mean |θ - π/4| over all qubits at the end of the run: 0 = full
  /// superposition everywhere, π/4 = fully collapsed angles.
  double mean_collapse = 0.0;
};

struct RunResult {
  Genome best;
  double best_objective = 0.0;
  /// Canonical ProblemSpec string of the problem this run solved, for
  /// provenance in telemetry ("" when the problem was constructed
  /// programmatically rather than through a spec).
  std::string problem;
  /// Best-so-far objective after each generation (convergence curve).
  std::vector<double> history;
  long long evaluations = 0;  ///< fitness evaluations ("explored solutions")
  int generations = 0;
  double seconds = 0.0;

  /// Engine-specific sections (engaged by the engines that produce them).
  std::optional<IslandSection> islands;
  std::optional<QuantumSection> quantum;
  /// Final-population checkpoint for warm-start chaining. Engaged by
  /// callers that ask for it (Engine::population_snapshot() after a
  /// run — the session layer does this every replan), never by
  /// Engine::run itself.
  std::optional<PopulationSection> population;
  /// Evaluation-cache counters accrued by THIS run (a delta, not the
  /// cache's lifetime totals — a shared or reused cache reports clean
  /// per-run numbers). hits + misses + eval.inherited == evaluations
  /// for the cached evaluation paths. Always engaged: all-zero when no
  /// cache is configured, so telemetry consumers never special-case the
  /// field.
  std::optional<EvalCacheStats> cache;
  /// Per-run observability snapshot (decode timing, batch sizes,
  /// generation latency, cache counters — see docs/observability.md for
  /// the catalog). A delta against the registry's pre-run state, so
  /// shared registries report clean per-run numbers.
  std::optional<obs::MetricsSnapshot> metrics;
};

/// Historical name from when every engine had its own result struct.
using GaResult = RunResult;

}  // namespace psga::ga
