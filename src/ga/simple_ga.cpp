#include "src/ga/simple_ga.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace psga::ga {

OperatorConfig default_operators(const Problem& problem) {
  OperatorConfig ops;
  ops.selection = std::make_shared<TournamentSelection>(2);
  const GenomeTraits& traits = problem.traits();
  switch (traits.seq_kind) {
    case SeqKind::kPermutation:
      ops.crossover = std::make_shared<OxCrossover>();
      ops.mutation = std::make_shared<SwapMutation>();
      break;
    case SeqKind::kJobRepetition:
      ops.crossover = std::make_shared<JoxCrossover>();
      ops.mutation = std::make_shared<SwapMutation>();
      break;
    case SeqKind::kNone:
      ops.crossover = std::make_shared<UniformKeyCrossover>();
      ops.mutation = std::make_shared<KeyCreepMutation>();
      break;
  }
  if (!traits.assign_domain.empty()) {
    ops.mutation = std::make_shared<CompositeMutation>(
        ops.mutation, std::make_shared<AssignMutation>());
  }
  return ops;
}

GaConfig inner_engine_config(GaConfig base) {
  base.eval_backend = EvalBackend::kSerial;
  return base;
}

SimpleGa::SimpleGa(ProblemPtr problem, GaConfig config, par::ThreadPool* pool)
    : problem_(std::move(problem)),
      config_(std::move(config)),
      rng_(config_.seed),
      evaluator_(problem_, config_.eval_backend, pool, config_.eval_cache) {
  if (!config_.ops.selection || !config_.ops.crossover || !config_.ops.mutation) {
    OperatorConfig defaults = default_operators(*problem_);
    if (!config_.ops.selection) config_.ops.selection = defaults.selection;
    if (!config_.ops.crossover) config_.ops.crossover = defaults.crossover;
    if (!config_.ops.mutation) config_.ops.mutation = defaults.mutation;
  }
  // A fraction outside [0, 1] (or NaN) would breed more children than
  // the population has slots.
  if (!(config_.immigration_fraction >= 0.0 &&
        config_.immigration_fraction <= 1.0)) {
    throw std::invalid_argument(
        "SimpleGa: immigration_fraction must be in [0, 1], got " +
        std::to_string(config_.immigration_fraction));
  }
  if (config_.elites < 0) {
    throw std::invalid_argument("SimpleGa: elites must be >= 0, got " +
                                std::to_string(config_.elites));
  }
  obs::ensure_registry(config_.metrics);
  attach(config_.metrics, config_.tracer, config_.eval_cache);
  evaluator_.set_obs(config_.metrics, config_.tracer);
}

void SimpleGa::init() {
  // Every run starts from the configured seed: a rerun replays.
  rng_ = par::Rng(config_.seed);
  population_.clear();
  population_.reserve(static_cast<std::size_t>(config_.population));
  // Injected genomes (the warm-start seam) win slots first, truncated at
  // the population size; the remainder is drawn at random.
  for (const Genome& seed : config_.initial_population) {
    if (static_cast<int>(population_.size()) >= config_.population) break;
    population_.push_back(seed);
  }
  while (static_cast<int>(population_.size()) < config_.population) {
    population_.push_back(problem_->random_genome(rng_));
  }
  objectives_.assign(population_.size(), 0.0);
  generation_ = 0;
  evaluations_baseline_ = evaluator_.evaluations();
  has_best_ = false;
  evaluate_all();
}

void SimpleGa::evaluate_all() {
  evaluator_.evaluate(population_, objectives_);
  scan_population_best();
}

void SimpleGa::scan_population_best() {
  for (std::size_t i = 0; i < population_.size(); ++i) {
    if (!has_best_ || objectives_[i] < best_objective_) {
      best_objective_ = objectives_[i];
      best_ = population_[i];
      has_best_ = true;
    }
  }
}

std::vector<double> SimpleGa::fitness_values() const {
  std::vector<double> fitness(objectives_.size());
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    fitness[i] =
        config_.transform == FitnessTransform::kReference
            ? std::max(config_.reference_objective - objectives_[i], 0.0)
            : 1.0 / std::max(objectives_[i], 1e-12);
  }
  if (config_.niche_radius > 0) {
    // Fitness sharing (niche penalty): divide by the niche count
    // m_i = sum_j sh(d_ij), sh(d) = 1 - (d/radius)^alpha for d < radius.
    const double radius = static_cast<double>(config_.niche_radius);
    for (std::size_t i = 0; i < population_.size(); ++i) {
      double niche = 0.0;
      for (std::size_t j = 0; j < population_.size(); ++j) {
        const int d = hamming_distance(population_[i], population_[j]);
        if (d < config_.niche_radius) {
          niche += 1.0 - std::pow(static_cast<double>(d) / radius,
                                  config_.niche_alpha);
        }
      }
      fitness[i] /= std::max(niche, 1.0);
    }
  }
  return fitness;
}

double SimpleGa::current_mutation_rate() const {
  const OperatorConfig& ops = config_.ops;
  if (ops.mutation_rate_final < 0.0) return ops.mutation_rate;
  const int span = std::max(1, config_.termination.max_generations - 1);
  const double t =
      std::min(1.0, static_cast<double>(generation_) / static_cast<double>(span));
  return ops.mutation_rate + t * (ops.mutation_rate_final - ops.mutation_rate);
}

void SimpleGa::step() {
  obs::Tracer* const tracer = tracer_.get();
  const std::uint64_t breed_start = tracer != nullptr ? tracer->now_ns() : 0;
  const std::vector<double> fitness = fitness_values();
  const GenomeTraits& traits = problem_->traits();
  // The generation size follows the CURRENT population, not the config:
  // island merging (absorb) grows a population permanently ([29]).
  const int population = static_cast<int>(population_.size());
  const int elites = std::min(config_.elites, population);
  const int immigrants = std::min(
      population - elites,
      static_cast<int>(config_.immigration_fraction * population));
  const int bred = population - elites - immigrants;

  // Double-buffered breeding: children land in fixed slots of the next
  // buffers, which swap with the current generation once evaluated.
  next_population_.resize(static_cast<std::size_t>(population));
  next_objectives_.assign(static_cast<std::size_t>(population), 0.0);
  std::size_t filled = 0;

  // A slot holding a verbatim copy of a current individual (an elite, or
  // a child that neither crossed nor mutated) inherits that individual's
  // objective, so the Evaluator decodes only the other slots. Nothing is
  // compared: the breeding branch alone says which slots are copies.
  next_known_.assign(static_cast<std::size_t>(population), 0);

  // Elitism: best `elites` individuals survive unchanged.
  std::vector<int> order(population_.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(elites),
                    order.end(), [&](int a, int b) {
                      return objectives_[static_cast<std::size_t>(a)] <
                             objectives_[static_cast<std::size_t>(b)];
                    });
  for (int e = 0; e < elites; ++e) {
    const auto source = static_cast<std::size_t>(order[static_cast<std::size_t>(e)]);
    next_population_[filled] = population_[source];
    next_objectives_[filled] = objectives_[source];
    next_known_[filled++] = 1;
  }

  // Breeding: selection (possibly SUS batch), crossover, mutation.
  const int pairs = (bred + 1) / 2;
  const std::vector<int> parents =
      config_.ops.selection->pick_many(fitness, pairs * 2, rng_);
  const double mutation_rate = current_mutation_rate();
  const std::size_t last_bred_slot = static_cast<std::size_t>(elites + bred);
  for (int p = 0; p < pairs; ++p) {
    const auto pa = static_cast<std::size_t>(parents[static_cast<std::size_t>(2 * p)]);
    const auto pb = static_cast<std::size_t>(parents[static_cast<std::size_t>(2 * p + 1)]);
    const Genome& a = population_[pa];
    const Genome& b = population_[pb];
    // The odd-count tail pair still breeds (and draws for) a second
    // child; it just lands in the spare buffer instead of a slot.
    const bool has_room2 = filled + 1 < last_bred_slot;
    Genome& child1 = next_population_[filled];
    Genome& child2 = has_room2 ? next_population_[filled + 1] : spare_child_;
    const bool crossed = rng_.chance(config_.ops.crossover_rate);
    if (crossed) {
      config_.ops.crossover->cross(a, b, traits, child1, child2, rng_);
    } else {
      child1 = a;
      child2 = b;
    }
    const bool mutated1 = rng_.chance(mutation_rate);
    if (mutated1) config_.ops.mutation->mutate(child1, traits, rng_);
    const bool mutated2 = rng_.chance(mutation_rate);
    if (mutated2) config_.ops.mutation->mutate(child2, traits, rng_);
    if (!crossed && !mutated1) {
      next_objectives_[filled] = objectives_[pa];
      next_known_[filled] = 1;
    }
    if (!crossed && !mutated2 && has_room2) {
      next_objectives_[filled + 1] = objectives_[pb];
      next_known_[filled + 1] = 1;
    }
    filled += has_room2 ? 2 : 1;
  }

  // Immigration ([24]): fresh random individuals.
  for (int i = 0; i < immigrants; ++i) {
    next_population_[filled++] = problem_->random_genome(rng_);
  }
  if (tracer != nullptr) {
    tracer->record("breed", breed_start, tracer->now_ns() - breed_start);
  }

  evaluator_.evaluate(next_population_, next_objectives_, next_known_);
  population_.swap(next_population_);
  objectives_.swap(next_objectives_);
  ++generation_;
  scan_population_best();
}

void SimpleGa::replace_individual(int slot, const Genome& genome,
                                  double objective) {
  population_[static_cast<std::size_t>(slot)] = genome;
  objectives_[static_cast<std::size_t>(slot)] = objective;
  if (!has_best_ || objective < best_objective_) {
    best_objective_ = objective;
    best_ = genome;
    has_best_ = true;
  }
}

int SimpleGa::best_index() const {
  return static_cast<int>(std::distance(
      objectives_.begin(),
      std::min_element(objectives_.begin(), objectives_.end())));
}

int SimpleGa::worst_index() const {
  return static_cast<int>(std::distance(
      objectives_.begin(),
      std::max_element(objectives_.begin(), objectives_.end())));
}

void SimpleGa::absorb(std::span<const Genome> genomes,
                      std::span<const double> objectives) {
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    population_.push_back(genomes[i]);
    objectives_.push_back(objectives[i]);
    if (objectives[i] < best_objective_) {
      best_objective_ = objectives[i];
      best_ = genomes[i];
    }
  }
}

double SimpleGa::stagnation_fraction(int threshold) const {
  if (population_.empty()) return 0.0;
  int close = 0;
  for (const Genome& g : population_) {
    if (hamming_distance(g, best_) < threshold) ++close;
  }
  return static_cast<double>(close) / static_cast<double>(population_.size());
}

}  // namespace psga::ga
