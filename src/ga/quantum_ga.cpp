#include "src/ga/quantum_ga.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/ga/problems.h"

namespace psga::ga {

namespace {

constexpr double kHalfPi = 1.5707963267948966;

struct QuantumIndividual {
  std::vector<double> theta;  ///< qubit angles
};

/// Reusable per-island buffers for the measurement loop.
struct MeasureScratch {
  std::vector<double> priority;
  std::vector<int> perm;
};

/// Collapses angles to a genome: priority_i = sin²θ_i + noise·U(0,1),
/// decoded by the random-keys rule appropriate for the problem's traits.
/// All buffers (including out.seq) are reused across calls.
void measure(const std::vector<double>& theta, const GenomeTraits& traits,
             double noise, par::Rng& rng, MeasureScratch& scratch,
             Genome& out) {
  std::vector<double>& priority = scratch.priority;
  priority.resize(theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    const double s = std::sin(theta[i]);
    priority[i] = s * s + noise * rng.uniform();
  }
  if (traits.seq_kind == SeqKind::kJobRepetition) {
    keys_to_repetition_sequence(priority, traits.repeats, scratch.perm,
                                out.seq);
  } else {
    keys_to_permutation(priority, out.seq);
  }
}

/// Rotation gate: pull θ toward the angle configuration whose measurement
/// would reproduce `target`'s priority ranks.
void rotate_toward(std::vector<double>& theta, const Genome& target,
                   const GenomeTraits& traits, double delta) {
  // target.seq orders values; invert it to per-slot rank. For repetition
  // sequences rank slots job-major (k-th occurrence of job j = its k-th
  // flat op slot), mirroring keys_to_repetition_sequence.
  const std::size_t n = theta.size();
  std::vector<double> target_key(n, 0.0);
  if (traits.seq_kind == SeqKind::kJobRepetition) {
    // slot_base[j] = first flat slot of job j.
    std::vector<int> slot_base(traits.repeats.size() + 1, 0);
    for (std::size_t j = 0; j < traits.repeats.size(); ++j) {
      slot_base[j + 1] = slot_base[j] + traits.repeats[j];
    }
    std::vector<int> seen(traits.repeats.size(), 0);
    for (std::size_t pos = 0; pos < target.seq.size(); ++pos) {
      const int job = target.seq[pos];
      const int slot = slot_base[static_cast<std::size_t>(job)] +
                       seen[static_cast<std::size_t>(job)]++;
      target_key[static_cast<std::size_t>(slot)] =
          static_cast<double>(pos) / static_cast<double>(n);
    }
  } else {
    for (std::size_t pos = 0; pos < target.seq.size(); ++pos) {
      target_key[static_cast<std::size_t>(target.seq[pos])] =
          static_cast<double>(pos) / static_cast<double>(n);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Angle whose sin² equals the target key.
    const double want = std::asin(std::sqrt(std::clamp(target_key[i], 0.0, 1.0)));
    if (theta[i] < want) {
      theta[i] = std::min(theta[i] + delta, want);
    } else {
      theta[i] = std::max(theta[i] - delta, want);
    }
  }
}

}  // namespace

struct QuantumGa::State {
  struct Island {
    std::vector<QuantumIndividual> pop;
    par::Rng rng;
    Genome best;
    double best_obj = -1.0;
    MeasureScratch measure_scratch;
  };

  std::vector<Island> islands;
  /// All measurements of a generation in one flat batch (island-major)
  /// so a single Evaluator call covers every island at once.
  std::vector<Genome> measured;
  std::vector<double> objectives;
  double annealed_noise = 0.0;
  int generation = 0;

  std::size_t leader() const {
    std::size_t lead = 0;
    for (std::size_t i = 1; i < islands.size(); ++i) {
      if (islands[i].best_obj < islands[lead].best_obj) lead = i;
    }
    return lead;
  }
};

QuantumGa::QuantumGa(ProblemPtr problem, QuantumGaConfig config,
                     par::ThreadPool* pool)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      pool_(pool != nullptr ? pool : &par::default_pool()),
      planned_generations_(config_.generations),
      evaluator_(problem_, config_.eval_backend, pool_, config_.eval_cache) {
  obs::ensure_registry(config_.metrics);
  attach(config_.metrics, config_.tracer, config_.eval_cache);
  evaluator_.set_obs(config_.metrics, config_.tracer);
}

QuantumGa::~QuantumGa() = default;

void QuantumGa::prepare_run(const StopCondition& stop) {
  // The noise-annealing schedule needs a finite horizon; under an
  // unbounded generation cap (wall-clock / evaluation budgets) fall back
  // to the configured generation count so the exploration→exploitation
  // ramp still happens.
  planned_generations_ =
      stop.max_generations == std::numeric_limits<int>::max()
          ? config_.generations
          : stop.max_generations;
}

void QuantumGa::init() {
  const GenomeTraits& traits = problem_->traits();
  const std::size_t genes = static_cast<std::size_t>(traits.seq_length);
  const int k = config_.islands;
  const std::size_t pop = static_cast<std::size_t>(config_.population);

  state_ = std::make_unique<State>();
  evaluations_baseline_ = evaluator_.evaluations();
  par::Rng root(config_.seed);
  state_->islands.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    State::Island& island = state_->islands[static_cast<std::size_t>(i)];
    island.rng = root.split(static_cast<std::uint64_t>(i + 1));
    island.pop.resize(pop);
    for (auto& ind : island.pop) {
      ind.theta.resize(genes);
      // Start at maximum superposition (π/4) with small jitter.
      for (auto& t : ind.theta) {
        t = kHalfPi / 2.0 + island.rng.uniform(-0.2, 0.2);
      }
    }
  }
  state_->measured.assign(static_cast<std::size_t>(k) * pop, Genome{});
  state_->objectives.assign(state_->measured.size(), 0.0);
  state_->annealed_noise = config_.measure_noise;
  state_->generation = 0;
}

void QuantumGa::step() {
  State& s = *state_;
  const GenomeTraits& traits = problem_->traits();
  const std::size_t genes = static_cast<std::size_t>(traits.seq_length);
  const std::size_t pop = static_cast<std::size_t>(config_.population);
  const int k = config_.islands;

  const double t =
      planned_generations_ > 1
          ? static_cast<double>(s.generation) / (planned_generations_ - 1)
          : 0.0;
  s.annealed_noise = config_.measure_noise +
                     t * (config_.measure_noise_final - config_.measure_noise);

  auto measure_island = [&](std::size_t idx) {
    State::Island& island = s.islands[idx];
    for (std::size_t p = 0; p < island.pop.size(); ++p) {
      measure(island.pop[p].theta, traits, s.annealed_noise, island.rng,
              island.measure_scratch, s.measured[idx * pop + p]);
    }
  };
  auto evolve_island = [&](std::size_t idx) {
    State::Island& island = s.islands[idx];
    for (std::size_t p = 0; p < island.pop.size(); ++p) {
      const double objective = s.objectives[idx * pop + p];
      if (island.best_obj < 0.0 || objective < island.best_obj) {
        island.best_obj = objective;
        island.best = s.measured[idx * pop + p];
      }
    }
    // Rotation toward the island best.
    for (auto& ind : island.pop) {
      rotate_toward(ind.theta, island.best, traits, config_.rotation_delta);
    }
    // Quantum segment crossover within the island (lower level of [28]).
    for (std::size_t p = 0; p + 1 < island.pop.size(); p += 2) {
      if (!island.rng.chance(config_.crossover_rate)) continue;
      std::size_t lo = island.rng.below(genes);
      std::size_t hi = island.rng.below(genes);
      if (lo > hi) std::swap(lo, hi);
      for (std::size_t g = lo; g <= hi; ++g) {
        std::swap(island.pop[p].theta[g], island.pop[p + 1].theta[g]);
      }
    }
    // Not-gate mutation.
    for (auto& ind : island.pop) {
      if (island.rng.chance(config_.not_gate_rate)) {
        const std::size_t g = island.rng.below(genes);
        ind.theta[g] = kHalfPi - ind.theta[g];
      }
    }
  };

  pool_->parallel_for(s.islands.size(), measure_island);
  evaluator_.evaluate(s.measured, s.objectives);
  pool_->parallel_for(s.islands.size(), evolve_island);

  // Upper level: penetration migration from the globally best island.
  if (config_.migration_interval > 0 &&
      (s.generation + 1) % config_.migration_interval == 0 && k > 1) {
    const std::size_t leader = s.leader();
    // Blend the leader's best-measured solution into every other
    // island's worst individual's angles.
    std::vector<double> leader_theta(genes, kHalfPi / 2.0);
    rotate_toward(leader_theta, s.islands[leader].best, traits, kHalfPi);
    for (std::size_t i = 0; i < s.islands.size(); ++i) {
      if (i == leader) continue;
      std::size_t worst = 0;
      for (std::size_t p = 1; p < s.islands[i].pop.size(); ++p) {
        if (s.objectives[i * pop + p] > s.objectives[i * pop + worst]) {
          worst = p;
        }
      }
      auto& worst_theta = s.islands[i].pop[worst].theta;
      for (std::size_t g = 0; g < genes; ++g) {
        worst_theta[g] = config_.penetration * leader_theta[g] +
                         (1.0 - config_.penetration) * worst_theta[g];
      }
      if (observer_ != nullptr) {
        observer_->on_migration(MigrationEvent{
            s.generation + 1, static_cast<int>(leader), static_cast<int>(i),
            s.islands[leader].best_obj});
      }
    }
  }
  ++s.generation;
}

int QuantumGa::generation() const {
  return state_ ? state_->generation : 0;
}

double QuantumGa::best_objective() const {
  return state_ ? state_->islands[state_->leader()].best_obj : 0.0;
}

const Genome& QuantumGa::best() const {
  return state_->islands[state_->leader()].best;
}

long long QuantumGa::evaluations() const {
  return evaluator_.evaluations() - evaluations_baseline_;
}

int QuantumGa::population_size() const {
  return state_ ? static_cast<int>(state_->measured.size()) : 0;
}

const Genome& QuantumGa::individual(int i) const {
  return state_->measured[static_cast<std::size_t>(i)];
}

double QuantumGa::objective_of(int i) const {
  return state_->objectives[static_cast<std::size_t>(i)];
}

void QuantumGa::fill_sections(RunResult& result) const {
  const State& s = *state_;
  IslandSection islands;
  islands.best.reserve(s.islands.size());
  islands.best_genome.reserve(s.islands.size());
  for (const auto& island : s.islands) {
    islands.best.push_back(island.best_obj);
    islands.best_genome.push_back(island.best);
  }
  islands.surviving = static_cast<int>(s.islands.size());
  result.islands = std::move(islands);

  QuantumSection quantum;
  quantum.final_noise = s.annealed_noise;
  double collapse = 0.0;
  std::size_t angles = 0;
  for (const auto& island : s.islands) {
    for (const auto& ind : island.pop) {
      for (double theta : ind.theta) {
        collapse += std::abs(theta - kHalfPi / 2.0);
        ++angles;
      }
    }
  }
  quantum.mean_collapse = angles > 0 ? collapse / static_cast<double>(angles)
                                     : 0.0;
  result.quantum = quantum;
}

}  // namespace psga::ga
