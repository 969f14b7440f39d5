#include "src/exp/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/exp/obs_json.h"
#include "src/ga/problem_spec.h"
#include "src/ga/solver.h"
#include "src/par/thread_pool.h"

namespace psga::exp {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Json axes_object(const SweepSpec& spec, const SweepCell& cell) {
  Json axes = Json::object();
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    axes.set(spec.axes[a].label, Json::string(cell.axis_values[a]));
  }
  return axes;
}

/// How one cell resolves: the canonical problem spec (the cache key and
/// provenance string), the solver half of the cell tokens, or the
/// structured error that poisoned the cell at plan time.
struct CellPlan {
  bool ok = false;
  std::string error;
  /// Key into the shared problem map: the canonical ProblemSpec string,
  /// or the raw instance name under a custom resolver.
  std::string problem_key;
  /// Canonical ProblemSpec for provenance ("" under a custom resolver).
  std::string canonical;
  std::string solver_text;               ///< SolverSpec tokens of the cell
  std::optional<ga::ProblemSpec> pspec;  ///< parsed problem half
};

/// Splits a cell's combined tokens and folds the @instances entry into
/// the problem half. Throws for malformed halves, for an instance=
/// token fighting the @instances entry, and for problem tokens under a
/// custom resolver (which owns instance semantics entirely — silently
/// dropping them would let a criterion=/decoder= axis report a
/// fabricated effect while every cell solves the same problem).
CellPlan plan_cell(const SweepCell& cell, bool custom_resolver) {
  CellPlan plan;
  auto [problem_text, solver_text] = ga::split_spec_tokens(cell.spec);
  plan.solver_text = std::move(solver_text);
  if (custom_resolver) {
    if (!problem_text.empty()) {
      throw std::invalid_argument(
          "SweepSpec: problem tokens '" + problem_text +
          "' do not apply under a custom resolver");
    }
    plan.problem_key = cell.instance;
    plan.ok = true;
    return plan;
  }
  if (!cell.instance.empty()) {
    if (problem_text.find("instance=") != std::string::npos) {
      throw std::invalid_argument(
          "SweepSpec: instance= token '" + problem_text +
          "' conflicts with @instances entry '" + cell.instance + "'");
    }
    if (!problem_text.empty()) problem_text += ' ';
    problem_text += "instance=" + cell.instance;
  }
  plan.pspec = ga::ProblemSpec::parse(problem_text);
  plan.canonical = plan.pspec->to_string();
  plan.problem_key = plan.canonical;
  plan.ok = true;
  return plan;
}

}  // namespace

ga::ProblemPtr default_resolver(const std::string& name) {
  if (name.empty()) {
    throw std::invalid_argument(
        "sweep has no @instances and no custom resolver");
  }
  // One source of truth for instance tokens: the problem registry
  // (family inferred from the token, see ProblemSpec::parse).
  return ga::ProblemSpec::parse("instance=" + name).build();
}

Json sweep_begin_record(const SweepSpec& spec,
                        const std::vector<SweepCell>& cells) {
  Json axes = Json::array();
  for (const SweepAxis& axis : spec.axes) {
    Json values = Json::array();
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      values.push(Json::string(axis.value_label(i)));
    }
    axes.push(Json::object()
                  .set("label", Json::string(axis.label))
                  .set("values", std::move(values)));
  }
  Json instances = Json::array();
  // From the expanded cells (the authoritative list), not a second
  // expand_instances() glob that could disagree with the grid run.
  for (const SweepCell& cell : cells) {
    if (cell.instance_index == static_cast<int>(instances.items().size())) {
      instances.push(Json::string(cell.instance));
    }
  }
  Json line = Json::object();
  line.set("event", Json::string("sweep_begin"))
      .set("sweep", Json::string(spec.name))
      .set("cells", Json::integer(static_cast<long long>(cells.size())))
      .set("configs", Json::integer(spec.configs()))
      .set("reps", Json::integer(spec.reps))
      .set("seed", Json::uinteger(spec.seed))
      .set("base", Json::string(spec.base));
  if (spec.reference > 0) line.set("reference", Json::number(spec.reference));
  line.set("axes", std::move(axes)).set("instances", std::move(instances));
  return line;
}

Json run_begin_record(const SweepCell& cell, const std::string& problem) {
  Json begin = Json::object();
  begin.set("event", Json::string("run_begin"))
      .set("cell", Json::integer(cell.index))
      .set("config", Json::integer(cell.config))
      .set("instance", Json::string(cell.instance))
      .set("rep", Json::integer(cell.rep))
      .set("seed", Json::uinteger(cell.seed))
      .set("spec", Json::string(cell.spec));
  if (!problem.empty()) begin.set("problem", Json::string(problem));
  return begin;
}

Json cell_record(const SweepSpec& spec, const CellResult& result,
                 const std::string& problem) {
  const SweepCell& cell = result.cell;
  Json line = Json::object();
  line.set("event", Json::string("cell"))
      .set("cell", Json::integer(cell.index))
      .set("config", Json::integer(cell.config))
      .set("instance", Json::string(cell.instance))
      .set("rep", Json::integer(cell.rep))
      .set("seed", Json::uinteger(cell.seed))
      .set("hash", Json::string(sweep_cell_hash_hex(spec.name, cell)))
      .set("spec", Json::string(cell.spec));
  if (!problem.empty()) line.set("problem", Json::string(problem));
  line.set("axes", axes_object(spec, cell)).set("ok", Json::boolean(result.ok));
  if (!result.ok) {
    line.set("error", Json::string(result.error));
    return line;
  }
  line.set("best_objective", Json::number(result.result.best_objective))
      .set("generations", Json::integer(result.result.generations))
      .set("evaluations", Json::integer(result.result.evaluations))
      .set("seconds", Json::number(result.seconds));
  // Cache counters are always engaged (Engine::run fills all-zero stats
  // when no cache is configured), so downstream consumers never branch
  // on their presence. value_or covers results resumed from pre-schema
  // telemetry files, which may predate the unconditional field.
  line.set("cache", cache_to_json(
                        result.result.cache.value_or(ga::EvalCacheStats{})));
  return line;
}

Json cell_metrics_record(const SweepSpec& spec, const SweepCell& cell,
                         const obs::MetricsSnapshot& metrics) {
  return Json::object()
      .set("event", Json::string("metrics"))
      .set("cell", Json::integer(cell.index))
      .set("hash", Json::string(sweep_cell_hash_hex(spec.name, cell)))
      .set("metrics", metrics_to_json(metrics));
}

Json sweep_end_record(const SweepSpec& spec, int ok, int failed,
                      double seconds) {
  return Json::object()
      .set("event", Json::string("sweep_end"))
      .set("sweep", Json::string(spec.name))
      .set("ok", Json::integer(ok))
      .set("failed", Json::integer(failed))
      .set("seconds", Json::number(seconds));
}

FinishedCells scan_finished_cells(std::istream& in) {
  FinishedCells finished;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json record;
    try {
      record = Json::parse(line);
    } catch (const std::exception&) {
      // The truncated tail a SIGKILL leaves mid-write — not a finished
      // cell, so the resumed run simply re-runs whatever it described.
      continue;
    }
    if (!record.is_object()) continue;
    if (record.string_or("event", "") != "cell") continue;
    const Json* hash = record.find("hash");
    if (hash == nullptr || hash->kind() != Json::Kind::kString) continue;
    // A record whose fields do not read is no finished cell either: the
    // resumed run re-runs it.
    try {
      (void)cell_result_from_record(SweepCell{}, record);
    } catch (const std::invalid_argument&) {
      continue;
    }
    finished[hash->as_string()] = std::move(record);
  }
  return finished;
}

CellResult cell_result_from_record(const SweepCell& cell, const Json& record) {
  CellResult result;
  result.cell = cell;
  result.resumed = true;
  const Json* ok = record.find("ok");
  result.ok = ok != nullptr && ok->kind() == Json::Kind::kBool && ok->as_bool();
  result.seconds = record.number_or("seconds", 0.0);
  if (!result.ok) {
    result.error = record.string_or("error", "unknown error (resumed)");
    return result;
  }
  result.result.best_objective = record.number_or("best_objective", 0.0);
  result.result.generations = record.integer_or("generations", 0);
  result.result.evaluations =
      record.integer_or("evaluations", result.result.evaluations);
  result.result.problem = record.string_or("problem", "");
  if (const Json* cache = record.find("cache")) {
    result.result.cache = cache_from_json(*cache);
  }
  return result;
}

SweepRunner::SweepRunner(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

SweepResult SweepRunner::run() {
  const double sweep_start = now_seconds();
  SweepResult out;
  out.spec = spec_;
  std::vector<SweepCell> cells = spec_.expand();
  if (cells.empty()) {
    throw std::invalid_argument("SweepSpec '" + spec_.name +
                                "' expands to zero cells");
  }
  const bool custom_resolver = static_cast<bool>(options_.resolve);

  // Resume: match each cell against the finished records of a previous
  // run by stable cell hash. Matched cells skip planning, problem
  // resolution and execution entirely — a cell whose instance no longer
  // resolves still resumes cleanly. Records are read here, serially: one
  // whose fields do not read is no finished cell (as in
  // scan_finished_cells), so the cell runs again instead of throwing on
  // a pool lane.
  std::vector<std::optional<CellResult>> resumed(cells.size());
  if (options_.resume != nullptr && !options_.resume->empty()) {
    for (const SweepCell& cell : cells) {
      const auto it =
          options_.resume->find(sweep_cell_hash_hex(spec_.name, cell));
      if (it == options_.resume->end()) continue;
      try {
        resumed[static_cast<std::size_t>(cell.index)] =
            cell_result_from_record(cell, it->second);
      } catch (const std::exception&) {
      }
    }
  }

  // Plan every cell (split the combined problem+solver tokens, fold in
  // the @instances entry), then resolve each distinct problem once, up
  // front and serially. Distinct means distinct canonical ProblemSpec —
  // cells varying only engine tokens share one Problem, cells varying
  // problem tokens each get their own. A failed plan or resolution
  // poisons only the affected cells (fail-soft); resolution errors carry
  // the canonical problem spec so telemetry pinpoints which expansion
  // failed.
  std::vector<CellPlan> plans(cells.size());
  std::map<std::string, ga::ProblemPtr> problems;
  std::map<std::string, std::string> resolve_errors;
  for (const SweepCell& cell : cells) {
    if (resumed[static_cast<std::size_t>(cell.index)]) continue;
    CellPlan& plan = plans[static_cast<std::size_t>(cell.index)];
    try {
      plan = plan_cell(cell, custom_resolver);
    } catch (const std::exception& e) {
      plan.ok = false;
      plan.error = e.what();
      continue;
    }
    if (problems.count(plan.problem_key) ||
        resolve_errors.count(plan.problem_key)) {
      continue;
    }
    try {
      ga::ProblemPtr problem = custom_resolver
                                   ? options_.resolve(cell.instance)
                                   : plan.pspec->build();
      if (problem == nullptr) {
        throw std::invalid_argument("resolver returned null for instance '" +
                                    cell.instance + "'");
      }
      problems[plan.problem_key] = std::move(problem);
    } catch (const std::exception& e) {
      resolve_errors[plan.problem_key] = e.what();
    }
  }

  TelemetrySink* sink = options_.telemetry;
  if (sink != nullptr) sink->write(sweep_begin_record(spec_, cells));

  out.cells.resize(cells.size());
  std::mutex progress_mutex;
  int done = 0;  // guarded by progress_mutex: callbacks see monotonic counts
  const int total = static_cast<int>(cells.size());
  std::mutex trace_mutex;  // guards out.trace across lanes

  auto run_cell = [&](const SweepCell& cell) {
    if (std::optional<CellResult>& resumed_result =
            resumed[static_cast<std::size_t>(cell.index)]) {
      // Reconstructed from the resume file: no execution, and no new
      // telemetry — the file already holds this cell's records, so the
      // appended stream unions to one uninterrupted run's.
      CellResult result = std::move(*resumed_result);
      {
        std::lock_guard lock(progress_mutex);
        ++done;
        if (options_.progress) options_.progress(result, done, total);
      }
      out.cells[static_cast<std::size_t>(cell.index)] = std::move(result);
      return;
    }
    const CellPlan& plan = plans[static_cast<std::size_t>(cell.index)];
    CellResult result;
    result.cell = cell;
    if (sink != nullptr) sink->write(run_begin_record(cell, plan.canonical));
    const double start = now_seconds();
    try {
      if (!plan.ok) throw std::invalid_argument(plan.error);
      const auto poisoned = resolve_errors.find(plan.problem_key);
      if (poisoned != resolve_errors.end()) {
        throw std::invalid_argument(poisoned->second);
      }
      // A private single-lane pool: engine-level parallelism runs inline
      // on this lane, so pool regions never nest inside the sweep pool.
      par::ThreadPool cell_pool(1);
      ga::SolverSpec sspec = ga::SolverSpec::parse(plan.solver_text);
      // The trace overlay touches only the spec handed to build: the
      // recorded cell spec and resume hash stay the sweep's own tokens,
      // so traced and untraced runs of one sweep resume each other.
      if (options_.trace) sspec.trace = true;
      ga::Solver solver = ga::Solver::build(
          std::move(sspec), problems.at(plan.problem_key), &cell_pool);
      std::optional<CellObserver> observer;
      if (sink != nullptr) {
        observer.emplace(*sink, cell.index, options_.telemetry_every);
        solver.set_observer(&*observer);
      }
      result.result = solver.run(spec_.stop);
      result.result.problem = plan.canonical;
      result.ok = true;
      if (options_.trace) {
        if (const auto tracer = solver.engine().tracer_shared()) {
          obs::TraceProcess process;
          process.pid = cell.index;
          process.name = "cell " + std::to_string(cell.index) + ": " +
                         cell.spec +
                         (cell.instance.empty() ? "" : " @" + cell.instance);
          process.events = tracer->events();
          std::lock_guard lock(trace_mutex);
          out.trace.push_back(std::move(process));
        }
      }
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
    result.seconds = now_seconds() - start;
    if (sink != nullptr) {
      sink->write(cell_record(spec_, result, plan.canonical));
      if (result.ok && result.result.metrics) {
        sink->write(
            cell_metrics_record(spec_, cell, *result.result.metrics));
      }
    }
    {
      std::lock_guard lock(progress_mutex);
      ++done;
      if (options_.progress) options_.progress(result, done, total);
    }
    out.cells[static_cast<std::size_t>(cell.index)] = std::move(result);
  };

  const int lanes = options_.threads > 1 ? options_.threads : 1;
  if (lanes == 1) {
    for (const SweepCell& cell : cells) run_cell(cell);
  } else {
    // Dynamic dealing: cells are uneven, so lanes pull from an atomic
    // cursor instead of taking static chunks.
    par::ThreadPool pool(lanes);
    std::atomic<std::size_t> next{0};
    pool.parallel_for(static_cast<std::size_t>(lanes),
                      [&](std::size_t /*lane*/) {
                        for (;;) {
                          const std::size_t i = next.fetch_add(1);
                          if (i >= cells.size()) break;
                          run_cell(cells[i]);
                        }
                      });
  }

  for (const CellResult& result : out.cells) {
    if (!result.ok) ++out.failed;
  }
  // Lanes push trace processes in completion order; present them by cell.
  std::sort(out.trace.begin(), out.trace.end(),
            [](const obs::TraceProcess& a, const obs::TraceProcess& b) {
              return a.pid < b.pid;
            });
  out.seconds = now_seconds() - sweep_start;
  if (sink != nullptr) {
    sink->write(sweep_end_record(spec_, total - out.failed, out.failed,
                                 out.seconds));
  }
  return out;
}

SweepResult run_sweep(SweepSpec spec, SweepOptions options) {
  return SweepRunner(std::move(spec), std::move(options)).run();
}

}  // namespace psga::exp
