// The fine-grained (cellular / neighborhood / diffusion) GA — Table IV of
// the survey, the model of Tamaki et al. [20] and the torus component of
// Lin et al. [21].
//
// One individual per cell of a 2-D torus; selection and mating are
// restricted to a cell's neighborhood and good genes spread only through
// neighborhood overlap. The update is synchronous (double-buffered) and
// each cell owns a deterministic Rng stream, so results are identical for
// any worker-thread count.
#pragma once

#include <vector>

#include "src/ga/config.h"
#include "src/ga/engine.h"
#include "src/ga/evaluator.h"
#include "src/ga/problem.h"
#include "src/ga/result.h"
#include "src/par/thread_pool.h"

namespace psga::ga {

enum class Neighborhood {
  kVonNeumann,  ///< N/S/E/W at distance <= radius (diamond)
  kMoore,       ///< Chebyshev distance <= radius (square)
};

struct CellularConfig {
  int width = 16;
  int height = 16;
  Neighborhood neighborhood = Neighborhood::kVonNeumann;
  int radius = 1;
  /// Offspring replaces the cell only if strictly better ("replace if
  /// better" is the usual synchronous cellular rule); false = always.
  bool replace_if_better = true;
  double crossover_rate = 0.95;
  double mutation_rate = 0.2;
  CrossoverPtr crossover;  ///< defaults from the problem encoding
  MutationPtr mutation;
  /// Fitness batches for the whole grid; the torus is the survey's
  /// fine-grained parallel model, so the parallel pool is the default.
  EvalBackend eval_backend = EvalBackend::kThreadPool;
  /// Objective memoization (see GaConfig::eval_cache); null = off. The
  /// islands-of-cellular engine hands one handle to every torus.
  EvalCachePtr eval_cache;
  Termination termination;
  std::uint64_t seed = 1;
  /// Injected initial individuals (warm start): they occupy the leading
  /// cells in row-major order, truncating at the grid size; the remaining
  /// cells draw random genomes as usual.
  std::vector<Genome> initial_population;
  /// Observability sinks (see GaConfig::metrics/tracer): the engine
  /// ensures a registry when null; outer engines share theirs here.
  obs::RegistryPtr metrics;
  std::shared_ptr<obs::Tracer> tracer;
};

class CellularGa : public Engine {
 public:
  CellularGa(ProblemPtr problem, CellularConfig config,
             par::ThreadPool* pool = nullptr);

  // Stepwise Engine API (also used by the hybrid island-of-torus
  // engine [21]).
  void init() override;
  void step() override;
  int generation() const override { return generation_; }
  double best_objective() const override { return best_objective_; }
  const Genome& best() const override { return best_; }
  /// Fitness evaluations since the last init() (counted by the Evaluator).
  long long evaluations() const override {
    return evaluator_.evaluations() - evaluations_baseline_;
  }
  int population_size() const override { return cells(); }
  const Genome& individual(int cell) const override {
    return grid_[static_cast<std::size_t>(cell)];
  }
  double objective_of(int cell) const override {
    return objectives_[static_cast<std::size_t>(cell)];
  }
  StopCondition stop_default() const override { return config_.termination; }
  bool seed_population(std::vector<Genome> genomes) override {
    config_.initial_population = std::move(genomes);
    return true;
  }

  int cells() const { return config_.width * config_.height; }
  /// Replaces the individual at `cell` (hybrid-model migration).
  void replace_cell(int cell, const Genome& genome, double objective);
  double objective_at(int cell) const { return objective_of(cell); }

  using Engine::run;

 protected:
  void prepare_run(const StopCondition& stop) override {
    config_.termination = stop;
  }

 private:
  std::vector<int> neighbors_of(int cell) const;
  void update_best();

  ProblemPtr problem_;
  CellularConfig config_;
  par::ThreadPool* pool_;
  Evaluator evaluator_;

  std::vector<Genome> grid_;
  std::vector<double> objectives_;
  std::vector<Genome> next_grid_;
  std::vector<double> next_objectives_;
  std::vector<par::Rng> cell_rngs_;
  std::vector<std::vector<int>> neighbor_table_;
  Genome best_;
  double best_objective_ = 0.0;
  long long evaluations_baseline_ = 0;
  int generation_ = 0;
};

}  // namespace psga::ga
