// The island (coarse-grained / multi-deme / migration) GA — Table V of the
// survey and the model that "dominates the work on parallel GA for shop
// scheduling problems".
//
// K subpopulations evolve independently (one SimpleGa each, with its own
// deterministic Rng stream, so runs are reproducible for any thread
// count); every `interval` generations a migration exchanges individuals
// along a connection topology under a replacement policy. The
// configuration space covers what the surveyed works explore:
//   topologies  — ring [26], grid/torus [21][37], fully connected [35],
//                 star [28], hypercube ("virtual cube", [27]),
//                 random-per-epoch routes [36];
//   policies    — best-replace-worst, best-replace-random,
//                 random-replace-random ([35]'s three policies);
//   heterogeneous islands — per-island operators ([26], [30]) and even
//                 per-island objectives (the weighted multi-objective
//                 islands of Rashidi et al. [38]);
//   stagnation-triggered island merging (Spanos et al. [29]).
#pragma once

#include <vector>

#include "src/ga/engine.h"
#include "src/ga/simple_ga.h"
#include "src/par/thread_pool.h"

namespace psga::ga {

enum class Topology {
  kRing,
  kGrid,            ///< 2-D mesh, no wrap
  kTorus,           ///< 2-D mesh with wrap-around
  kFullyConnected,
  kStar,            ///< island 0 is the hub
  kHypercube,
  kRandom,          ///< fresh random routes at every migration epoch [36]
};

enum class MigrationPolicy {
  kBestReplaceWorst,
  kBestReplaceRandom,
  kRandomReplaceRandom,
};

struct MigrationConfig {
  Topology topology = Topology::kRing;
  MigrationPolicy policy = MigrationPolicy::kBestReplaceWorst;
  int interval = 10;  ///< generations between migrations; 0 = never
  int count = 1;      ///< migrants per edge per epoch
  /// Models asynchronous deployments deterministically: migrants selected
  /// at epoch e are delivered at epoch e + delay_epochs (0 = synchronous
  /// delivery within the epoch, the scheme of Park et al. [26]).
  int delay_epochs = 0;
};

struct IslandMergeConfig {
  bool enabled = false;
  /// An island stagnates when more than half its individuals are within
  /// this Hamming distance of its best ([29]).
  int hamming_threshold = 2;
  double fraction = 0.5;
};

struct IslandGaConfig {
  int islands = 4;
  /// Per-island defaults; GaConfig::population is the SUBpopulation size.
  GaConfig base;
  MigrationConfig migration;
  IslandMergeConfig merge;
  /// Optional heterogeneous per-island operator sets (size == islands).
  std::vector<OperatorConfig> per_island_ops;
  /// Optional per-island problems (size == islands) — e.g. differently
  /// weighted objectives for multi-objective search [38]. All entries
  /// must share the same GenomeTraits.
  std::vector<ProblemPtr> per_island_problems;
  /// Start all islands from the same initial subpopulation (Bożejko's
  /// "same start subpopulation" strategy [30]); default: different.
  bool identical_start = false;
};

class IslandGa : public Engine {
 public:
  IslandGa(ProblemPtr problem, IslandGaConfig config,
           par::ThreadPool* pool = nullptr);

  // --- Engine interface ---------------------------------------------------
  void init() override;
  /// One generation on every alive island (in parallel), followed by the
  /// migration epoch and stagnation-triggered merging when due.
  void step() override;
  int generation() const override { return generation_; }
  double best_objective() const override;
  const Genome& best() const override;
  long long evaluations() const override;
  /// Flat view over the alive islands' populations, island-major.
  int population_size() const override;
  const Genome& individual(int i) const override;
  double objective_of(int i) const override;
  StopCondition stop_default() const override {
    return config_.base.termination;
  }
  /// Injected genomes are dealt round-robin across the islands at init()
  /// (genome i goes to island i mod k), so a warm-started archipelago
  /// spreads the carried material instead of cloning it everywhere.
  bool seed_population(std::vector<Genome> genomes) override {
    config_.base.initial_population = std::move(genomes);
    return true;
  }

  /// The islands still alive (merging shrinks this).
  int surviving_islands() const { return static_cast<int>(alive_.size()); }
  /// Stepwise access to one island's engine (telemetry, tests).
  const SimpleGa& island(int i) const {
    return islands_[static_cast<std::size_t>(i)];
  }

  using Engine::run;

 protected:
  void prepare_run(const StopCondition& stop) override {
    config_.base.termination = stop;
  }
  void fill_sections(RunResult& result) const override;

 private:
  struct Edge {
    int from;
    int to;
  };
  struct Transfer {
    int from;
    int to;
    Genome genome;
    double objective;
  };
  std::vector<Edge> edges_for_epoch(int epoch, std::span<const int> alive);
  void migrate(std::span<const Edge> edges);
  void deliver(std::span<const Transfer> transfers);
  void deliver_due();

  ProblemPtr problem_;
  IslandGaConfig config_;
  par::ThreadPool* pool_;

  // Run state (rebuilt by init()).
  std::vector<SimpleGa> islands_;
  std::vector<int> alive_;
  obs::Counter* migrants_ = nullptr;  ///< engine.migrants (delivered)
  par::Rng migration_rng_;
  int generation_ = 0;
  int epoch_ = 0;
  /// Migrations queued by the delayed (asynchronous-model) mode.
  std::vector<std::vector<Transfer>> in_flight_;
  /// Per-island best-so-far curves (RunResult::islands history).
  std::vector<std::vector<double>> island_history_;
};

}  // namespace psga::ga
