#include "src/ga/solver.h"

#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "src/ga/registry.h"
#include "src/ga/spec_util.h"

namespace psga::ga {

namespace {

[[noreturn]] void bad_token(const std::string& token,
                            const std::string& reason) {
  spec::bad_token("SolverSpec", token, reason);
}

EvalBackend parse_eval(const std::string& value, const std::string& token) {
  if (value == "serial") return EvalBackend::kSerial;
  if (value == "pool") return EvalBackend::kThreadPool;
  bad_token(token, "unknown eval backend (serial|pool)");
}

Topology parse_topology(const std::string& value, const std::string& token) {
  if (value == "ring") return Topology::kRing;
  if (value == "grid") return Topology::kGrid;
  if (value == "torus") return Topology::kTorus;
  if (value == "full") return Topology::kFullyConnected;
  if (value == "star") return Topology::kStar;
  if (value == "hypercube") return Topology::kHypercube;
  if (value == "random") return Topology::kRandom;
  bad_token(token, "unknown topology");
}

MigrationPolicy parse_policy(const std::string& value,
                             const std::string& token) {
  if (value == "best-worst") return MigrationPolicy::kBestReplaceWorst;
  if (value == "best-random") return MigrationPolicy::kBestReplaceRandom;
  if (value == "random-random") return MigrationPolicy::kRandomReplaceRandom;
  bad_token(token, "unknown migration policy");
}

Neighborhood parse_neighborhood(const std::string& value,
                                const std::string& token) {
  if (value == "von-neumann") return Neighborhood::kVonNeumann;
  if (value == "moore") return Neighborhood::kMoore;
  bad_token(token, "unknown neighborhood");
}

FitnessTransform parse_transform(const std::string& value,
                                 const std::string& token) {
  if (value == "inverse") return FitnessTransform::kInverse;
  if (value == "reference") return FitnessTransform::kReference;
  bad_token(token, "unknown fitness transform");
}

int parse_int(const std::string& value, const std::string& token) {
  return spec::parse_int("SolverSpec", value, token);
}

/// parse_int, refusing a value outside [lo, hi] with an error naming the
/// token and the range.
int parse_int_in(const std::string& value, const std::string& token, int lo,
                 int hi) {
  const int n = parse_int(value, token);
  if (n < lo || n > hi) {
    bad_token(token, token.substr(0, token.find('=')) + " must be in [" +
                         std::to_string(lo) + ", " + std::to_string(hi) +
                         "]");
  }
  return n;
}

double parse_double(const std::string& value, const std::string& token) {
  return spec::parse_double("SolverSpec", value, token);
}

/// parse_double, refusing a value outside [0, 1] (NaN and the infinities
/// included) with an error naming the token.
double parse_fraction(const std::string& value, const std::string& token) {
  const double x = parse_double(value, token);
  if (!(x >= 0.0 && x <= 1.0)) {
    bad_token(token, token.substr(0, token.find('=')) + " must be in [0, 1]");
  }
  return x;
}

std::uint64_t parse_u64(const std::string& value, const std::string& token) {
  return spec::parse_u64("SolverSpec", value, token);
}

/// The cache capacity of `eval_cache=off|lru:<capacity>`, 0 for off. The
/// removed forms (unbounded, a trailing :<shards>) are refused, never
/// read as another configuration.
std::size_t parse_eval_cache(const std::string& value,
                             const std::string& token) {
  if (value == "off") return 0;
  const std::string capacity =
      value.rfind("lru:", 0) == 0 ? value.substr(4) : "";
  if (capacity.empty() ||
      capacity.find_first_not_of("0123456789") != std::string::npos) {
    bad_token(token, "unknown eval cache (off | lru:<capacity>)");
  }
  const std::uint64_t entries = parse_u64(capacity, token);
  if (entries == 0) bad_token(token, "lru capacity must be positive");
  return static_cast<std::size_t>(entries);
}

}  // namespace

SolverSpec SolverSpec::parse(const std::string& text) {
  SolverSpec spec;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      bad_token(token, "expected key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "engine") {
      spec.engine = value;
    } else if (key == "pop") {
      spec.population = parse_int_in(value, token, 1, kMaxPopulation);
    } else if (key == "elites") {
      spec.elites = parse_int_in(value, token, 0, kMaxPopulation);
    } else if (key == "seed") {
      spec.seed = parse_u64(value, token);
    } else if (key == "eval") {
      spec.eval = parse_eval(value, token);
    } else if (key == "eval_cache") {
      spec.eval_cache = parse_eval_cache(value, token);
    } else if (key == "sel") {
      spec.selection = value;
    } else if (key == "xover") {
      spec.crossover = value;
    } else if (key == "mut") {
      spec.mutation = value;
    } else if (key == "xover-rate") {
      spec.crossover_rate = parse_double(value, token);
    } else if (key == "mut-rate") {
      spec.mutation_rate = parse_double(value, token);
    } else if (key == "immigration") {
      spec.immigration = parse_fraction(value, token);
    } else if (key == "transform") {
      spec.transform = parse_transform(value, token);
    } else if (key == "reference") {
      spec.reference = parse_double(value, token);
    } else if (key == "islands") {
      spec.islands = parse_int_in(value, token, 1, kMaxIslands);
    } else if (key == "topology") {
      spec.topology = parse_topology(value, token);
    } else if (key == "policy") {
      spec.policy = parse_policy(value, token);
    } else if (key == "interval") {
      spec.interval = parse_int_in(value, token, 0, kMaxPeriod);
    } else if (key == "migrants") {
      spec.migrants = parse_int_in(value, token, 0, kMaxPopulation);
    } else if (key == "delay") {
      spec.delay = parse_int(value, token);
    } else if (key == "width") {
      spec.width = parse_int_in(value, token, 1, kMaxGridSide);
    } else if (key == "height") {
      spec.height = parse_int_in(value, token, 1, kMaxGridSide);
    } else if (key == "neighborhood") {
      spec.neighborhood = parse_neighborhood(value, token);
    } else if (key == "radius") {
      spec.radius = parse_int_in(value, token, 1, kMaxRadius);
    } else if (key == "refine") {
      spec.refine = parse_int_in(value, token, 0, kMaxPopulation);
    } else if (key == "budget") {
      spec.budget = parse_int(value, token);
    } else if (key == "ranks") {
      spec.ranks = parse_int_in(value, token, 1, kMaxRanks);
    } else if (key == "broadcast") {
      spec.broadcast = parse_int_in(value, token, 0, kMaxPeriod);
    } else if (key == "trace") {
      if (value == "on") {
        spec.trace = true;
      } else if (value == "off") {
        spec.trace = false;
      } else {
        bad_token(token, "expected trace=on|off");
      }
    } else {
      bad_token(token, "unknown key");
    }
  }
  return spec;
}

namespace {

const char* eval_name(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kSerial: return "serial";
    case EvalBackend::kThreadPool: return "pool";
  }
  return "serial";
}

const char* topology_name(Topology topology) {
  switch (topology) {
    case Topology::kRing: return "ring";
    case Topology::kGrid: return "grid";
    case Topology::kTorus: return "torus";
    case Topology::kFullyConnected: return "full";
    case Topology::kStar: return "star";
    case Topology::kHypercube: return "hypercube";
    case Topology::kRandom: return "random";
  }
  return "ring";
}

const char* policy_name(MigrationPolicy policy) {
  switch (policy) {
    case MigrationPolicy::kBestReplaceWorst: return "best-worst";
    case MigrationPolicy::kBestReplaceRandom: return "best-random";
    case MigrationPolicy::kRandomReplaceRandom: return "random-random";
  }
  return "best-worst";
}

const char* neighborhood_name(Neighborhood neighborhood) {
  return neighborhood == Neighborhood::kMoore ? "moore" : "von-neumann";
}

const char* transform_name(FitnessTransform transform) {
  return transform == FitnessTransform::kReference ? "reference" : "inverse";
}

std::string eval_cache_value(std::size_t capacity) {
  return capacity == 0 ? "off" : "lru:" + std::to_string(capacity);
}

}  // namespace

std::string SolverSpec::to_string() const {
  std::ostringstream out;
  // max_digits10 keeps doubles exact through a parse round-trip.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "engine=" << engine;
  auto put = [&out](const char* key, const auto& value) {
    if (value) out << ' ' << key << '=' << *value;
  };
  put("pop", population);
  put("elites", elites);
  put("seed", seed);
  if (eval) out << " eval=" << eval_name(*eval);
  if (eval_cache) out << " eval_cache=" << eval_cache_value(*eval_cache);
  put("sel", selection);
  put("xover", crossover);
  put("mut", mutation);
  put("xover-rate", crossover_rate);
  put("mut-rate", mutation_rate);
  put("immigration", immigration);
  if (transform) out << " transform=" << transform_name(*transform);
  put("reference", reference);
  put("islands", islands);
  if (topology) out << " topology=" << topology_name(*topology);
  if (policy) out << " policy=" << policy_name(*policy);
  put("interval", interval);
  put("migrants", migrants);
  put("delay", delay);
  put("width", width);
  put("height", height);
  if (neighborhood) out << " neighborhood=" << neighborhood_name(*neighborhood);
  put("radius", radius);
  put("refine", refine);
  put("budget", budget);
  put("ranks", ranks);
  put("broadcast", broadcast);
  if (trace) out << " trace=" << (*trace ? "on" : "off");
  return out.str();
}

namespace {

/// Applies the spec's shared GA knobs onto a GaConfig.
GaConfig base_config(const SolverSpec& spec) {
  GaConfig cfg;
  if (spec.population) cfg.population = *spec.population;
  if (spec.elites) cfg.elites = *spec.elites;
  if (spec.seed) cfg.seed = *spec.seed;
  if (spec.eval) cfg.eval_backend = *spec.eval;
  cfg.eval_cache = EvalCache::make(spec.eval_cache.value_or(0));
  if (spec.selection) cfg.ops.selection = make_selection(*spec.selection);
  if (spec.crossover) cfg.ops.crossover = make_crossover(*spec.crossover);
  if (spec.mutation) cfg.ops.mutation = make_mutation(*spec.mutation);
  if (spec.crossover_rate) cfg.ops.crossover_rate = *spec.crossover_rate;
  if (spec.mutation_rate) cfg.ops.mutation_rate = *spec.mutation_rate;
  if (spec.immigration) cfg.immigration_fraction = *spec.immigration;
  if (spec.transform) cfg.transform = *spec.transform;
  if (spec.reference) cfg.reference_objective = *spec.reference;
  if (spec.trace.value_or(false)) {
    cfg.tracer = std::make_shared<obs::Tracer>();
  }
  return cfg;
}

MigrationConfig migration_config(const SolverSpec& spec) {
  MigrationConfig mig;
  if (spec.topology) mig.topology = *spec.topology;
  if (spec.policy) mig.policy = *spec.policy;
  if (spec.interval) mig.interval = *spec.interval;
  if (spec.migrants) mig.count = *spec.migrants;
  if (spec.delay) mig.delay_epochs = *spec.delay;
  return mig;
}

CellularConfig cellular_config(const SolverSpec& spec) {
  CellularConfig cell;
  if (spec.width) cell.width = *spec.width;
  if (spec.height) cell.height = *spec.height;
  if (spec.neighborhood) cell.neighborhood = *spec.neighborhood;
  if (spec.radius) cell.radius = *spec.radius;
  if (spec.crossover) cell.crossover = make_crossover(*spec.crossover);
  if (spec.mutation) cell.mutation = make_mutation(*spec.mutation);
  if (spec.crossover_rate) cell.crossover_rate = *spec.crossover_rate;
  if (spec.mutation_rate) cell.mutation_rate = *spec.mutation_rate;
  if (spec.eval) cell.eval_backend = *spec.eval;
  cell.eval_cache = EvalCache::make(spec.eval_cache.value_or(0));
  if (spec.seed) cell.seed = *spec.seed;
  if (spec.trace.value_or(false)) {
    cell.tracer = std::make_shared<obs::Tracer>();
  }
  return cell;
}

struct EngineEntry {
  EngineFactory factory;
  std::string description;
};

std::map<std::string, EngineEntry>& registry() {
  static std::map<std::string, EngineEntry> engines = [] {
    std::map<std::string, EngineEntry> map;
    map["simple"] = {[](ProblemPtr problem, const SolverSpec& spec,
                        par::ThreadPool* pool) {
                       return make_engine(std::move(problem),
                                          base_config(spec), pool);
                     },
                     "sequential GA (the survey's baseline model)"};
    map["master-slave"] = {
        [](ProblemPtr problem, const SolverSpec& spec, par::ThreadPool* pool) {
          return make_master_slave_engine(std::move(problem),
                                          base_config(spec), pool);
        },
        "global population, parallel fitness evaluation"};
    map["cellular"] = {[](ProblemPtr problem, const SolverSpec& spec,
                          par::ThreadPool* pool) {
                         return make_engine(std::move(problem),
                                            cellular_config(spec), pool);
                       },
                       "fine-grained grid, neighborhood-local breeding"};
    map["island"] = {[](ProblemPtr problem, const SolverSpec& spec,
                        par::ThreadPool* pool) {
                       IslandGaConfig cfg;
                       cfg.base = base_config(spec);
                       if (spec.islands) cfg.islands = *spec.islands;
                       cfg.migration = migration_config(spec);
                       return make_engine(std::move(problem), std::move(cfg),
                                          pool);
                     },
                     "coarse-grained subpopulations with migration"};
    map["islands-of-cellular"] = {
        [](ProblemPtr problem, const SolverSpec& spec, par::ThreadPool* pool) {
          IslandsOfCellularConfig cfg;
          cfg.cell = cellular_config(spec);
          if (spec.islands) cfg.islands = *spec.islands;
          if (spec.interval) cfg.migration_interval = *spec.interval;
          if (spec.migrants) cfg.migrants = *spec.migrants;
          if (spec.seed) cfg.seed = *spec.seed;
          return make_engine(std::move(problem), std::move(cfg), pool);
        },
        "hybrid: migrating islands, each a cellular grid"};
    map["quantum"] = {[](ProblemPtr problem, const SolverSpec& spec,
                         par::ThreadPool* pool) {
                        // The quantum engine evolves qubit angles; classical
                        // operator names (xover/mut/sel) do not apply and are
                        // ignored.
                        QuantumGaConfig cfg;
                        if (spec.islands) cfg.islands = *spec.islands;
                        if (spec.population) cfg.population = *spec.population;
                        if (spec.interval) {
                          cfg.migration_interval = *spec.interval;
                        }
                        if (spec.eval) cfg.eval_backend = *spec.eval;
                        cfg.eval_cache =
                            EvalCache::make(spec.eval_cache.value_or(0));
                        if (spec.seed) cfg.seed = *spec.seed;
                        if (spec.trace.value_or(false)) {
                          cfg.tracer = std::make_shared<obs::Tracer>();
                        }
                        return make_engine(std::move(problem), std::move(cfg),
                                           pool);
                      },
                      "quantum-inspired islands over qubit chromosomes"};
    map["memetic"] = {[](ProblemPtr problem, const SolverSpec& spec,
                         par::ThreadPool*) {
                        MemeticConfig cfg;
                        cfg.base = base_config(spec);
                        if (spec.interval) cfg.interval = *spec.interval;
                        if (spec.refine) cfg.refine_count = *spec.refine;
                        if (spec.budget) cfg.search_budget = *spec.budget;
                        return make_engine(std::move(problem), std::move(cfg));
                      },
                      "GA + periodic local-search refinement waves"};
    map["cluster"] = {[](ProblemPtr problem, const SolverSpec& spec,
                         par::ThreadPool*) {
                        ClusterIslandConfig cfg;
                        cfg.base = base_config(spec);
                        if (spec.ranks) cfg.ranks = *spec.ranks;
                        if (spec.interval) cfg.neighbor_interval = *spec.interval;
                        if (spec.broadcast) {
                          cfg.broadcast_interval = *spec.broadcast;
                        }
                        return make_engine(std::move(problem), std::move(cfg));
                      },
                      "SPMD ranks, dual-frequency neighbor/broadcast epochs"};
    return map;
  }();
  return engines;
}

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

void register_engine(const std::string& name, EngineFactory factory,
                     std::string description) {
  std::lock_guard lock(registry_mutex());
  registry()[name] = {std::move(factory), std::move(description)};
}

std::vector<std::string> engine_names() {
  std::lock_guard lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, entry] : registry()) names.push_back(name);
  return names;
}

std::vector<RegistryEntry> engine_catalog() {
  std::lock_guard lock(registry_mutex());
  std::vector<RegistryEntry> catalog;
  catalog.reserve(registry().size());
  for (const auto& [name, entry] : registry()) {
    catalog.push_back({name, entry.description});
  }
  return catalog;
}

RunSpec RunSpec::parse(const std::string& text) {
  const auto [problem_half, solver_half] = split_spec_tokens(text);
  RunSpec spec;
  spec.problem = ProblemSpec::parse(problem_half);
  spec.solver = SolverSpec::parse(solver_half);
  return spec;
}

std::string RunSpec::to_string() const {
  return problem.to_string() + " " + solver.to_string();
}

Solver Solver::build(const SolverSpec& spec, ProblemPtr problem,
                     par::ThreadPool* pool) {
  EngineFactory factory;
  {
    std::lock_guard lock(registry_mutex());
    const auto it = registry().find(spec.engine);
    if (it == registry().end()) {
      std::string known;
      for (const auto& [name, entry] : registry()) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw std::invalid_argument("Solver: unknown engine '" + spec.engine +
                                  "' (registered: " + known + ")");
    }
    factory = it->second.factory;
  }
  return Solver(factory(std::move(problem), spec, pool), spec);
}

Solver Solver::build(const RunSpec& spec, par::ThreadPool* pool) {
  Solver solver = build(spec.solver, spec.problem.build(), pool);
  solver.problem_spec_ = spec.problem.to_string();
  return solver;
}

// --- typed escape hatches ----------------------------------------------------

EnginePtr make_engine(ProblemPtr problem, GaConfig config,
                      par::ThreadPool* pool) {
  return std::make_unique<SimpleGa>(std::move(problem), std::move(config),
                                    pool);
}

EnginePtr make_master_slave_engine(ProblemPtr problem, GaConfig config,
                                   par::ThreadPool* pool) {
  config.eval_backend = EvalBackend::kThreadPool;
  return make_engine(std::move(problem), std::move(config), pool);
}

EnginePtr make_engine(ProblemPtr problem, CellularConfig config,
                      par::ThreadPool* pool) {
  return std::make_unique<CellularGa>(std::move(problem), std::move(config),
                                      pool);
}

EnginePtr make_engine(ProblemPtr problem, IslandGaConfig config,
                      par::ThreadPool* pool) {
  return std::make_unique<IslandGa>(std::move(problem), std::move(config),
                                    pool);
}

EnginePtr make_engine(ProblemPtr problem, IslandsOfCellularConfig config,
                      par::ThreadPool* pool) {
  return std::make_unique<IslandsOfCellularGa>(std::move(problem),
                                               std::move(config), pool);
}

EnginePtr make_engine(ProblemPtr problem, QuantumGaConfig config,
                      par::ThreadPool* pool) {
  return std::make_unique<QuantumGa>(std::move(problem), std::move(config),
                                     pool);
}

EnginePtr make_engine(ProblemPtr problem, MemeticConfig config) {
  return std::make_unique<MemeticGa>(std::move(problem), std::move(config));
}

EnginePtr make_engine(ProblemPtr problem, ClusterIslandConfig config) {
  return std::make_unique<ClusterIslandGa>(std::move(problem),
                                           std::move(config));
}

}  // namespace psga::ga
