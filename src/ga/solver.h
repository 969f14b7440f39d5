// The unified solver facade: declarative run specs, a string-keyed
// engine registry, and one entry point for every parallel GA model.
//
//   auto problem = std::make_shared<FlowShopProblem>(instance);
//   Solver solver = Solver::build(
//       SolverSpec::parse("engine=island topology=ring islands=8 xover=ox"),
//       problem);
//   RunResult r = solver.run(StopCondition::generations(200));
//
// SolverSpec mirrors make_crossover/make_mutation/make_selection in
// src/ga/registry.h one level up: engines are named, operators are named,
// and a whole experiment row (bench sweeps, scenario grids) is one short
// string. Fields are optional so an unset key keeps the engine's own
// default (e.g. the cellular engine's thread-pool evaluation backend).
//
// Spec-string cookbook (see docs/architecture.md for the full list):
//   engine=simple pop=100 seed=7 xover=ox mut=swap sel=tournament4
//   engine=master-slave pop=200 eval=pool
//   engine=cellular width=16 height=16 neighborhood=moore radius=2
//   engine=island islands=8 topology=hypercube policy=best-random interval=5
//   engine=islands-of-cellular islands=4 width=8 height=8 interval=20
//   engine=quantum islands=4 pop=20
//   engine=memetic pop=60 interval=5 refine=2 budget=150
//   engine=cluster ranks=6 interval=5 broadcast=25
//   engine=island eval_cache=lru:65536
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/ga/cellular_ga.h"
#include "src/ga/engine.h"
#include "src/ga/hybrid_ga.h"
#include "src/ga/island_cluster.h"
#include "src/ga/island_ga.h"
#include "src/ga/memetic.h"
#include "src/ga/problem_registry.h"
#include "src/ga/problem_spec.h"
#include "src/ga/quantum_ga.h"
#include "src/ga/simple_ga.h"

namespace psga::ga {

/// Declarative engine configuration parsed from "key=value ..." strings.
/// Unset fields keep the target engine's defaults.
struct SolverSpec {
  std::string engine = "simple";

  // Shared GA knobs.
  std::optional<int> population;       ///< pop= (per island for island engines)
  std::optional<int> elites;           ///< elites=
  std::optional<std::uint64_t> seed;   ///< seed=
  /// eval=serial|pool
  std::optional<EvalBackend> eval;
  /// eval_cache=off|lru:<capacity> — the LRU entry budget, 0 for off.
  /// Solver::build makes at most one EvalCache per spec, and every inner
  /// island, rank or torus of the engine evaluates through it.
  std::optional<std::size_t> eval_cache;
  std::optional<std::string> selection;  ///< sel= (make_selection names)
  std::optional<std::string> crossover;  ///< xover= (make_crossover names)
  std::optional<std::string> mutation;   ///< mut= (make_mutation names)
  std::optional<double> crossover_rate;  ///< xover-rate=
  std::optional<double> mutation_rate;   ///< mut-rate=
  std::optional<double> immigration;     ///< immigration= ([24]'s c%)
  std::optional<FitnessTransform> transform;  ///< transform=inverse|reference
  std::optional<double> reference;       ///< reference= (Fbar for Eq. (1))

  // Island-structured engines.
  std::optional<int> islands;            ///< islands=
  std::optional<Topology> topology;      ///< topology=ring|grid|torus|full|star|hypercube|random
  std::optional<MigrationPolicy> policy; ///< policy=best-worst|best-random|random-random
  std::optional<int> interval;  ///< interval= (migration / LS wave / GN period)
  std::optional<int> migrants;  ///< migrants= per edge per epoch
  std::optional<int> delay;     ///< delay= epochs (async migration model)

  // Cellular engines.
  std::optional<int> width;
  std::optional<int> height;
  std::optional<Neighborhood> neighborhood;  ///< neighborhood=von-neumann|moore
  std::optional<int> radius;

  // Memetic engine.
  std::optional<int> refine;  ///< refine= individuals per LS wave
  std::optional<int> budget;  ///< budget= objective evaluations per climb

  // Cluster engine.
  std::optional<int> ranks;      ///< ranks=
  std::optional<int> broadcast;  ///< broadcast= (LN period; 0 = off)

  // Size bounds. parse() refuses a size token outside its range with an
  // error naming the token and the range, so no submitted spec reaches
  // an engine with an empty population, island set or grid, or asks
  // for thousands of threads or millions of genomes. Each rank is one
  // std::thread: ranks= is in [1, kMaxRanks].
  static constexpr int kMaxRanks = 256;
  /// pop= is in [1, kMaxPopulation]; elites= and migrants= count
  /// individuals too and are in [0, kMaxPopulation].
  static constexpr int kMaxPopulation = 1 << 16;
  /// islands= is in [1, kMaxIslands].
  static constexpr int kMaxIslands = 256;
  /// width= and height= are in [1, kMaxGridSide], so one grid holds at
  /// most kMaxPopulation cells.
  static constexpr int kMaxGridSide = 256;
  /// interval= and broadcast= are periods in generations (0 = off), in
  /// [0, kMaxPeriod].
  static constexpr int kMaxPeriod = 1'000'000;
  /// radius= is in [1, kMaxRadius]: every cell keeps a table of its whole
  /// neighborhood, up to (2 * radius + 1)^2 - 1 cells.
  static constexpr int kMaxRadius = 8;

  /// trace=on|off — opt-in stage tracing: the built engine gets a
  /// psga::obs::Tracer and records begin/end spans (breed, decode,
  /// cache_filter, migration, ...) retrievable via
  /// Engine::tracer_shared() and exportable as Chrome trace JSON
  /// (psga_sweep --trace). Purely observational: traces never change a
  /// RunResult. Metrics need no token — they are always on.
  std::optional<bool> trace;

  /// Parses a whitespace-separated "key=value ..." spec. Throws
  /// std::invalid_argument naming the offending token for unknown keys,
  /// malformed tokens, and unknown enum values.
  static SolverSpec parse(const std::string& text);

  /// Canonical spec string: parse(to_string()) reproduces this spec
  /// exactly (the round-trip the facade tests pin down). Unset fields are
  /// omitted; enum values render in canonical form.
  std::string to_string() const;

  bool operator==(const SolverSpec&) const = default;
};

/// A whole run in one string: the problem half (ProblemSpec keys) and
/// the engine half (SolverSpec keys) of a combined token stream.
///
///   Solver solver = Solver::build(RunSpec::parse(
///       "problem=flowshop instance=ta001 engine=island islands=4"));
///
/// Sweep cells are RunSpecs too: SweepSpec base/axis tokens may mix
/// problem and engine keys freely, so one sweep can span problem
/// families.
struct RunSpec {
  ProblemSpec problem;
  SolverSpec solver;

  /// Routes each "key=value" token to the owning spec language and
  /// parses both halves (either parser's structured errors propagate).
  static RunSpec parse(const std::string& text);

  /// Canonical form: problem tokens then solver tokens;
  /// parse(to_string()) reproduces this spec exactly.
  std::string to_string() const;

  bool operator==(const RunSpec&) const = default;
};

/// The facade: builds any registered engine from a spec and runs it.
class Solver {
 public:
  /// Looks the spec's engine up in the registry and configures it for
  /// `problem`. Throws std::invalid_argument for unknown engine names
  /// (the message lists the registered ones).
  static Solver build(const SolverSpec& spec, ProblemPtr problem,
                      par::ThreadPool* pool = nullptr);

  /// Builds problem and engine from a combined spec: the problem comes
  /// from the problem registry (spec.problem.build()), the engine from
  /// the engine registry. The run's RunResult records the canonical
  /// problem spec for provenance.
  static Solver build(const RunSpec& spec, par::ThreadPool* pool = nullptr);

  RunResult run(const StopCondition& stop) { return stamp(engine_->run(stop)); }
  RunResult run() { return stamp(engine_->run()); }

  /// Observer hooks for telemetry / early stopping / checkpoints.
  void set_observer(RunObserver* observer) { engine_->set_observer(observer); }

  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  /// The spec this solver was built from (empty default spec when the
  /// solver was constructed directly from an engine). Closes the
  /// spec → Solver → spec round-trip: spec() compares equal to the spec
  /// passed to build().
  const SolverSpec& spec() const { return spec_; }

  /// The canonical problem spec when built from a RunSpec ("" for
  /// problem pointers handed in directly).
  const std::string& problem_spec() const { return problem_spec_; }

  explicit Solver(EnginePtr engine, SolverSpec spec = {},
                  std::string problem_spec = {})
      : engine_(std::move(engine)),
        spec_(std::move(spec)),
        problem_spec_(std::move(problem_spec)) {}

 private:
  RunResult stamp(RunResult result) const {
    if (!problem_spec_.empty()) result.problem = problem_spec_;
    return result;
  }

  EnginePtr engine_;
  SolverSpec spec_;
  std::string problem_spec_;
};

// --- engine registry ---------------------------------------------------------

/// Factory signature: build an engine for `problem` from `spec`.
using EngineFactory =
    std::function<EnginePtr(ProblemPtr, const SolverSpec&, par::ThreadPool*)>;

/// Registers (or replaces) an engine factory under `name` with a
/// one-line description; the built-in engines are pre-registered. Lets
/// downstream code plug new models into SolverSpec strings without
/// touching this file.
void register_engine(const std::string& name, EngineFactory factory,
                     std::string description = {});

/// Sorted names currently registered (the legal `engine=` values).
std::vector<std::string> engine_names();

/// Sorted (name, description) rows of the engine registry — the engine
/// twin of problem_catalog() (psga_sweep --list-engines prints these).
std::vector<RegistryEntry> engine_catalog();

// --- typed escape hatches ----------------------------------------------------
// For configurations beyond what spec strings express (heterogeneous
// per-island operators, composite objectives, merge schedules), build the
// typed config and get the same Engine interface back. These are the only
// supported way to obtain an engine outside Solver::build.

EnginePtr make_engine(ProblemPtr problem, GaConfig config,
                      par::ThreadPool* pool = nullptr);  ///< simple GA
/// The master-slave (global parallel) GA of the survey's Table III: the
/// simple GA with fitness evaluation farmed out to the pool's lanes
/// ("slaves"). As the survey notes, it is the one parallel model that
/// does not change the algorithm's behaviour, so it is a SimpleGa on the
/// thread-pool backend, never a class of its own: any config backend is
/// promoted to kThreadPool (a serial master-slave engine is a
/// contradiction in terms), and the trace equals the serial engine's for
/// any thread count. AitZai et al.'s [14] fixed-time-budget mode is
/// StopCondition::time_budget, which every engine honors.
EnginePtr make_master_slave_engine(ProblemPtr problem, GaConfig config,
                                   par::ThreadPool* pool = nullptr);
EnginePtr make_engine(ProblemPtr problem, CellularConfig config,
                      par::ThreadPool* pool = nullptr);
EnginePtr make_engine(ProblemPtr problem, IslandGaConfig config,
                      par::ThreadPool* pool = nullptr);
EnginePtr make_engine(ProblemPtr problem, IslandsOfCellularConfig config,
                      par::ThreadPool* pool = nullptr);
EnginePtr make_engine(ProblemPtr problem, QuantumGaConfig config,
                      par::ThreadPool* pool = nullptr);
EnginePtr make_engine(ProblemPtr problem, MemeticConfig config);
EnginePtr make_engine(ProblemPtr problem, ClusterIslandConfig config);

}  // namespace psga::ga
