// The simple GA — Table II of the survey:
//   initialize(); while (!done) { Selection(); Crossover(); Mutation();
//   FitnessValueEvaluation(); }
//
// Implements the unified psga::ga::Engine interface; the island engine
// drives one SimpleGa per island through the same stepwise API, and
// MemeticGa extends it with local-search waves. All fitness evaluation
// goes through a psga::ga::Evaluator whose backend comes from
// GaConfig::eval_backend; since objectives are pure and chunking is
// deterministic, the evolutionary trace is identical for every backend
// and thread count. That is the master-slave invariance of Table III:
// make_master_slave_engine returns a SimpleGa on the pool. Elites and
// children that neither crossed nor mutated inherit their source's
// objective, so only the other slots are decoded.
#pragma once

#include <cstdint>
#include <span>

#include "src/ga/config.h"
#include "src/ga/engine.h"
#include "src/ga/evaluator.h"
#include "src/ga/problem.h"
#include "src/ga/result.h"
#include "src/par/rng.h"

namespace psga::ga {

class SimpleGa : public Engine {
 public:
  /// `pool` may be null — the library default pool is used when the
  /// config selects the thread-pool backend. Throws std::invalid_argument
  /// unless config.immigration_fraction is in [0, 1] and config.elites is
  /// not negative.
  SimpleGa(ProblemPtr problem, GaConfig config,
           par::ThreadPool* pool = nullptr);

  // --- Engine interface ---------------------------------------------------
  /// Re-seeds from config.seed and rebuilds the population; the Evaluator
  /// and its cache are the ones built at construction.
  void init() override;
  void step() override;  ///< one generation: selection, crossover, mutation, evaluation
  int generation() const override { return generation_; }
  double best_objective() const override { return best_objective_; }
  const Genome& best() const override { return best_; }
  /// Fitness evaluations since the last init() (counted by the Evaluator,
  /// the engine's single evaluation path).
  long long evaluations() const override {
    return evaluator_.evaluations() - evaluations_baseline_;
  }
  int population_size() const override {
    return static_cast<int>(population_.size());
  }
  const Genome& individual(int i) const override {
    return population_[static_cast<std::size_t>(i)];
  }
  double objective_of(int i) const override {
    return objectives_[static_cast<std::size_t>(i)];
  }
  StopCondition stop_default() const override { return config_.termination; }
  bool seed_population(std::vector<Genome> genomes) override {
    config_.initial_population = std::move(genomes);
    return true;
  }

  /// Genomes actually decoded: evaluations() less the inherited slots
  /// and the cache hits. Telemetry for benches and the cache tests.
  long long decode_calls() const { return evaluator_.decode_calls(); }

  /// The engine's evaluation path — the memetic engine routes its
  /// local-search climbs through it so they share the cache and the
  /// evaluation count.
  Evaluator& evaluator() { return evaluator_; }

  const std::vector<Genome>& population() const { return population_; }
  const std::vector<double>& objectives() const { return objectives_; }
  const GenomeTraits& traits() const { return problem_->traits(); }
  const GaConfig& config() const { return config_; }

  /// Injects an individual, replacing index `slot` (migration support);
  /// `objective` must be the genome's objective value.
  void replace_individual(int slot, const Genome& genome, double objective);

  /// Index of the best / worst individual of the current population.
  int best_index() const;
  int worst_index() const;

  /// Grows the population with foreign individuals (island merging, [29]).
  void absorb(std::span<const Genome> genomes, std::span<const double> objectives);

  /// Stagnation measure of Spanos et al. [29]: fraction of individuals
  /// whose Hamming distance to the best is below `threshold`.
  double stagnation_fraction(int threshold) const;

  /// Current mutation rate (honors the variable-probability schedule).
  double current_mutation_rate() const;

  using Engine::run;

 protected:
  void prepare_run(const StopCondition& stop) override {
    config_.termination = stop;
  }

 private:
  void evaluate_all();
  void scan_population_best();
  std::vector<double> fitness_values() const;

  ProblemPtr problem_;
  GaConfig config_;
  par::Rng rng_;
  Evaluator evaluator_;

  std::vector<Genome> population_;
  std::vector<double> objectives_;
  /// Double buffers for the next generation: step() breeds children into
  /// fixed slots here, evaluates them in one batch and then swaps them
  /// with population_/objectives_.
  std::vector<Genome> next_population_;
  std::vector<double> next_objectives_;
  std::vector<std::uint8_t> next_known_;  ///< 1 = objective inherited
  Genome spare_child_;  ///< discarded second child of the last odd pair
  Genome best_;
  double best_objective_ = 0.0;
  bool has_best_ = false;
  int generation_ = 0;
  long long evaluations_baseline_ = 0;
};

}  // namespace psga::ga
