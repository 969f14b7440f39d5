// Renders sweep telemetry JSONL into human-facing artifacts: a flat CSV
// (one row per cell, axes unpacked into columns) and a self-contained
// HTML dashboard (summary tables with RPD and cache hit rates, SVG
// convergence curves per axis value — no external assets, openable from
// a file:// URL on an air-gapped box).
//
// The parser consumes the schema documented in docs/sweeps.md: it keys
// on `sweep_begin` sections, folds generation events into per-cell
// convergence curves, and treats duplicate cell indices (a resumed
// file whose kill left partial lines, or a re-run) last-wins, so the
// report of a resumed telemetry file equals the report of one
// uninterrupted run. Unknown events and malformed lines (the tail a
// SIGKILL leaves, or a record whose fields do not read) are skipped, not
// fatal — a report over a live or truncated file renders whatever has
// landed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ga/eval_cache.h"

namespace psga::exp {

/// One finished cell as reported by its final `cell` record, plus the
/// convergence samples collected from its `generation` events.
struct ReportCell {
  int index = 0;
  int config = 0;
  int rep = 0;
  std::uint64_t seed = 0;
  std::string hash;
  std::string instance;
  std::string spec;
  std::string problem;
  bool ok = false;
  std::string error;
  double best_objective = 0.0;
  int generations = 0;
  long long evaluations = 0;
  double seconds = 0.0;
  /// (label, value) per axis, sweep axis order.
  std::vector<std::pair<std::string, std::string>> axes;
  std::optional<ga::EvalCacheStats> cache;
  /// (generation, best) samples, generation order.
  std::vector<std::pair<long long, double>> curve;
  /// Decode-side numbers joined from the cell's `metrics` record
  /// (in-process sweeps emit one right after each cell record;
  /// dispatched or pre-schema files leave has_metrics false).
  bool has_metrics = false;
  std::uint64_t decoded_genomes = 0;
  double decode_p50_ns = 0.0;
  double decode_p95_ns = 0.0;
  double decode_p99_ns = 0.0;
};

/// Everything one sweep section contributed to the telemetry file.
/// A resumed file holds two `sweep_begin` records for the same sweep;
/// they merge into one report.
struct SweepReport {
  std::string sweep;
  long long declared_cells = 0;  ///< from sweep_begin
  double reference = -1.0;       ///< best-known objective; < 0 = unset
  /// Axis labels and display values, declaration order.
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  /// Finished cells sorted by index (duplicates last-wins).
  std::vector<ReportCell> cells;
};

/// Parses a telemetry JSONL stream into per-sweep reports.
std::vector<SweepReport> parse_telemetry(std::istream& in);

/// One CSV block per sweep (separated by a `# sweep <name>` comment
/// line): cell rows with the axes unpacked into columns. RFC-4180
/// quoting — gen: instance names contain commas.
std::string render_csv(const std::vector<SweepReport>& reports);

/// A single self-contained HTML document: per-sweep summary tables
/// (best/mean/stddev over reps, mean RPD when a reference is declared,
/// cache hit rates when cells ran with a cache) and an SVG convergence
/// chart with one mean curve per configuration. Deterministic output —
/// no timestamps — so artifacts diff cleanly across runs.
std::string render_html(const std::vector<SweepReport>& reports);

}  // namespace psga::exp
