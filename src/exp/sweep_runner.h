// Executes an expanded SweepSpec: schedules cells across a thread pool,
// runs each cell's Solver, streams telemetry and captures per-cell
// errors without aborting the sweep.
//
// Parallel model: cells are the unit of parallelism. The runner owns a
// par::ThreadPool of `threads` lanes and deals cells to lanes through an
// atomic cursor (cells are wildly uneven — static chunks would idle
// lanes), and every cell runs its engine on a private single-thread pool
// so engine-level pool parallelism never nests inside the sweep pool.
// Because each cell's seed derives from its index alone, per-cell
// results are bit-identical between serial and parallel sweeps and
// across thread counts; only telemetry line order and timing fields
// differ.
//
// Fail-soft: a cell whose SolverSpec fails to parse, whose engine name
// is unknown or whose instance cannot be resolved records a structured
// error (CellResult::error + an ok=false telemetry record) and the sweep
// carries on.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/exp/sweep_spec.h"
#include "src/exp/telemetry.h"
#include "src/ga/problem.h"
#include "src/ga/result.h"
#include "src/obs/trace.h"

namespace psga::exp {

/// Maps an @instances entry to a Problem. Implementations throw
/// std::exception subclasses to report unresolvable names (captured as
/// the cell error). Called once per distinct instance, before cells run;
/// the resolved Problem is shared by every cell of that instance
/// (Problem::objective is const and pure, so concurrent cells are safe).
/// When a custom resolver is installed it owns instance semantics
/// entirely — problem-side tokens in the sweep do not apply.
using ProblemResolver = std::function<ga::ProblemPtr(const std::string&)>;

/// The spec-driven fallback used when no custom resolver is set: builds
/// `ga::ProblemSpec::parse("instance=" + name)` through the problem
/// registry, so files load by extension, canonical benchmark names
/// (ta001..ta010, ft06..la01) regenerate from the embedded sources, and
/// gen: tokens hit sched::generators. Without a resolver the runner goes
/// further than this helper: each cell's problem-side tokens (problem=,
/// criterion=, encoding=, ...) combine with its @instances entry into a
/// full ProblemSpec, so one sweep can span problem families; problems
/// are cached per canonical spec string, and unresolvable cells fail
/// soft with errors that carry that canonical spec.
ga::ProblemPtr default_resolver(const std::string& name);

struct CellResult {
  SweepCell cell;
  bool ok = false;
  std::string error;      ///< when !ok: what failed (parse/build/run)
  ga::RunResult result;   ///< when ok
  double seconds = 0.0;   ///< wall-clock of this cell
  /// True when the result was reconstructed from a resume file instead
  /// of running (history is then empty; final fields are exact).
  bool resumed = false;
};

struct SweepResult {
  SweepSpec spec;
  /// One entry per cell, indexed by SweepCell::index regardless of
  /// execution order.
  std::vector<CellResult> cells;
  double seconds = 0.0;
  int failed = 0;
  /// When SweepOptions::trace is set: one trace process per executed
  /// cell (pid = cell index, sorted), ready for obs::write_chrome_trace.
  /// Resumed and failed cells contribute no process.
  std::vector<obs::TraceProcess> trace;
};

/// Finished cells recovered from a previous run's telemetry, keyed by
/// the cell-hash hex string stamped into every final `cell` record.
using FinishedCells = std::map<std::string, Json>;

/// Scans a telemetry JSONL stream (typically the `--telemetry` file of a
/// killed run) for final `cell` records and returns them keyed by cell
/// hash. Malformed or truncated lines — the tail a SIGKILL leaves — and
/// cell records whose fields do not read are skipped (so a resume re-runs
/// those cells), as are records of other events and pre-hash schema
/// files.
FinishedCells scan_finished_cells(std::istream& in);

/// Reconstructs a CellResult (resumed=true, empty history) from the
/// final `cell` telemetry record of a previous run. Final fields
/// (best_objective, generations, evaluations, cache, error) round-trip
/// exactly — summary tables over resumed results match the original run
/// byte for byte; only `seconds` is the old run's wall clock.
CellResult cell_result_from_record(const SweepCell& cell, const Json& record);

struct SweepOptions {
  /// Cells in flight; <= 1 runs the sweep serially on the caller.
  int threads = 1;
  /// Optional JSONL sink (see telemetry.h for the schema).
  TelemetrySink* telemetry = nullptr;
  /// Generation-event stride (1 = every generation, 0 = final records
  /// only). Improvement/migration events always stream when a sink is set.
  int telemetry_every = 1;
  /// Instance resolver; default_resolver when unset.
  ProblemResolver resolve;
  /// Finished cells from a previous run (scan_finished_cells): matching
  /// cells are reconstructed instead of re-run and write no telemetry —
  /// append new lines to the same file and the union of cell records
  /// equals one uninterrupted run's. Not owned; may be null.
  const FinishedCells* resume = nullptr;
  /// Called after every finished cell (any lane, serialized by the
  /// runner): the cell's result plus done/total progress.
  std::function<void(const CellResult&, int done, int total)> progress;
  /// Stage tracing: overlays `trace=on` onto each cell's solver spec at
  /// build time only — the recorded cell spec and resume hash are the
  /// sweep's own tokens, so traced and untraced runs resume each other.
  /// Collected spans land in SweepResult::trace.
  bool trace = false;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepSpec spec, SweepOptions options = {});

  /// Expands and runs the whole grid. Throws only for unrunnable sweeps
  /// (empty grid, glob matching nothing) — per-cell failures are
  /// captured in the results.
  SweepResult run();

 private:
  SweepSpec spec_;
  SweepOptions options_;
};

/// Convenience: expand + run in one call.
SweepResult run_sweep(SweepSpec spec, SweepOptions options = {});

// --- telemetry record builders ----------------------------------------------
// One source of truth for the sweep telemetry line layouts: the runner
// writes these in-process and svc::dispatch_sweep writes the *same*
// records around the daemon's watch stream, so dispatched telemetry is
// byte-compatible with in-process telemetry (see docs/sweeps.md).

/// `sweep_begin`: grid shape, axes (display values) and instance list.
Json sweep_begin_record(const SweepSpec& spec,
                        const std::vector<SweepCell>& cells);

/// `run_begin` for one cell; `problem` is the canonical ProblemSpec
/// ("" omits the field — custom resolvers, unplannable cells).
Json run_begin_record(const SweepCell& cell, const std::string& problem);

/// Final `cell` record incl. the stable cell hash (resume key). Cache
/// counters are always present on ok records — all-zero when the cell
/// ran without an EvalCache — so downstream consumers never branch on
/// their existence.
Json cell_record(const SweepSpec& spec, const CellResult& result,
                 const std::string& problem);

/// `metrics`: the per-run MetricsSnapshot of one cell (obs_json layout
/// under the "metrics" key). Written by the in-process runner right
/// after the `cell` record; keyed by the same cell index/hash so report
/// tooling can join the two lines.
Json cell_metrics_record(const SweepSpec& spec, const SweepCell& cell,
                         const obs::MetricsSnapshot& metrics);

/// `sweep_end` with ok/failed counts.
Json sweep_end_record(const SweepSpec& spec, int ok, int failed,
                      double seconds);

}  // namespace psga::exp
