// Hybrid parallel GA models (Lin et al. [21]):
//   Model A — an island GA whose subpopulations are cellular (torus) GAs;
//             ring migration between islands, much less frequent than the
//             intra-torus diffusion.
//   Model B — an island GA whose islands are connected in a fine-grained
//             style topology (a torus with many small islands); covered by
//             IslandGa with Topology::kTorus, re-exported here as a
//             convenience constructor.
#pragma once

#include <vector>

#include "src/ga/cellular_ga.h"
#include "src/ga/engine.h"
#include "src/ga/island_ga.h"

namespace psga::ga {

struct IslandsOfCellularConfig {
  int islands = 4;
  CellularConfig cell;       ///< per-island torus configuration
  int migration_interval = 20;
  int migrants = 1;
  std::uint64_t seed = 1;
  Termination termination;   ///< outer loop (generations = torus steps)
};

/// Model A: island-of-torus.
class IslandsOfCellularGa : public Engine {
 public:
  IslandsOfCellularGa(ProblemPtr problem, IslandsOfCellularConfig config,
                      par::ThreadPool* pool = nullptr);

  void init() override;
  /// One torus step on every island (each internally parallel over
  /// cells), then ring migration when due.
  void step() override;
  int generation() const override { return generation_; }
  double best_objective() const override;
  const Genome& best() const override;
  long long evaluations() const override;
  /// Flat view over the islands' cell grids, island-major.
  int population_size() const override;
  const Genome& individual(int i) const override;
  double objective_of(int i) const override;
  StopCondition stop_default() const override { return config_.termination; }

  using Engine::run;

 protected:
  void prepare_run(const StopCondition& stop) override {
    config_.termination = stop;
  }
  void fill_sections(RunResult& result) const override;

 private:
  ProblemPtr problem_;
  IslandsOfCellularConfig config_;
  par::ThreadPool* pool_;

  // Run state (rebuilt by init()).
  std::vector<CellularGa> islands_;
  obs::Counter* migrants_ = nullptr;  ///< engine.migrants (delivered)
  par::Rng migration_rng_;
  int generation_ = 0;
};

/// Model B: a many-small-islands GA on a torus topology.
IslandGaConfig make_torus_island_config(int islands, GaConfig base,
                                        int migration_interval = 5);

}  // namespace psga::ga
