// Island GA on the message-passing cluster layer — the MPI-style
// deployment of Harmanani et al. [33] (Beowulf/MPI) and Defersha & Chen
// [35][36] (workstation farm, MPI).
//
// Each rank owns one island and runs its own SimpleGa; migrants travel as
// explicit messages (genome buffers), exactly as MPI_Send/MPI_Recv would
// carry them. Supports the dual-frequency scheme of [33]: neighbors share
// their best every `neighbor_interval` (GN) generations and everyone
// broadcasts its best every `broadcast_interval` (LN) generations, with
// GN << LN.
#pragma once

#include "src/ga/engine.h"
#include "src/ga/island_ga.h"
#include "src/par/cluster.h"

namespace psga::ga {

struct ClusterIslandConfig {
  int ranks = 4;
  GaConfig base;             ///< per-rank (per-island) GA configuration
  int neighbor_interval = 5; ///< GN: ring-neighbor exchange period
  int broadcast_interval = 25;  ///< LN: all-to-all best broadcast; 0 = off
};

/// The SPMD island engine. Ranks are real threads exchanging messages, so
/// this engine has no step boundary: run() executes the whole SPMD
/// program and the stepwise API is unavailable (step() throws). Stop
/// conditions beyond the generation budget (wall-clock, target,
/// evaluation budget, rank-local stagnation) are honored through a
/// per-generation consensus vote among the ranks, so no rank blocks on a
/// migrant from a rank that already stopped. RunObserver hooks are not
/// fired (callbacks would cross rank threads).
class ClusterIslandGa : public Engine {
 public:
  ClusterIslandGa(ProblemPtr problem, ClusterIslandConfig config);

  RunResult run(const StopCondition& stop) override;

  void init() override {}
  [[noreturn]] void step() override;
  int generation() const override { return last_.generations; }
  double best_objective() const override { return last_.best_objective; }
  const Genome& best() const override { return last_.best; }
  long long evaluations() const override { return last_.evaluations; }
  /// The rank populations live on their own threads; nothing to inspect.
  int population_size() const override { return 0; }
  [[noreturn]] const Genome& individual(int i) const override;
  [[noreturn]] double objective_of(int i) const override;
  StopCondition stop_default() const override {
    return config_.base.termination;
  }

  using Engine::run;

 private:
  ProblemPtr problem_;
  ClusterIslandConfig config_;
  obs::Counter* migrants_ = nullptr;  ///< engine.migrants (adopted)
  /// Gathered result of the last run (introspection after the fact).
  RunResult last_;
};

/// Runs the SPMD island GA on an in-process cluster and returns the
/// gathered result (RunResult::islands holds the per-rank bests).
/// Deterministic for a fixed config (per-rank seeds are derived streams;
/// migration only reads messages at barriers).
RunResult run_cluster_island_ga(ProblemPtr problem,
                                const ClusterIslandConfig& config);

}  // namespace psga::ga
