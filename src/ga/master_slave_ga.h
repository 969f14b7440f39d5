// The master-slave (global parallel) GA — Table III of the survey.
//
// A single population lives on the master; the only parallelized stage is
// fitness evaluation, farmed out to worker lanes ("slaves") through the
// shared Evaluator. As the survey notes, this is the one parallel model
// that does not change the algorithm's behaviour — enforced here by
// construction: MasterSlaveGa drives a SimpleGa whose
// GaConfig::eval_backend is promoted to a parallel backend, and a test
// asserts trace equality with the serial engine for any thread count.
//
// The fixed-time-budget mode of AitZai et al. [14] (run until a
// wall-clock budget expires, report explored solutions) is not special
// to this engine any more: pass StopCondition::time_budget(seconds) to
// run() — every engine honors it.
#pragma once

#include <optional>

#include "src/ga/simple_ga.h"
#include "src/par/thread_pool.h"

namespace psga::ga {

class MasterSlaveGa : public Engine {
 public:
  /// `pool` may be null — the library default pool is used. The parallel
  /// runtime comes from config.eval_backend; a config still set to
  /// kSerial is promoted to kThreadPool (a serial master-slave engine is
  /// a contradiction in terms).
  MasterSlaveGa(ProblemPtr problem, GaConfig config,
                par::ThreadPool* pool = nullptr);

  void init() override;
  void step() override;
  int generation() const override { return inner_ ? inner_->generation() : 0; }
  double best_objective() const override {
    return inner_ ? inner_->best_objective() : 0.0;
  }
  const Genome& best() const override { return inner_->best(); }
  long long evaluations() const override {
    return inner_ ? inner_->evaluations() : 0;
  }
  int population_size() const override {
    return inner_ ? inner_->population_size() : 0;
  }
  const Genome& individual(int i) const override {
    return inner_->individual(i);
  }
  double objective_of(int i) const override { return inner_->objective_of(i); }
  EvalCachePtr eval_cache_shared() const override {
    // Pre-init, a user-shared cache is already known from the config, so
    // the run loop can baseline its counters before init() attaches it.
    return inner_ ? inner_->eval_cache_shared() : config_.shared_eval_cache;
  }
  StopCondition stop_default() const override { return config_.termination; }
  bool seed_population(std::vector<Genome> genomes) override {
    // init() rebuilds the inner engine from config_, so the injected
    // population flows into the next run.
    config_.initial_population = std::move(genomes);
    return true;
  }

  using Engine::run;

 protected:
  void prepare_run(const StopCondition& stop) override {
    config_.termination = stop;
  }

 private:
  ProblemPtr problem_;
  GaConfig config_;
  par::ThreadPool* pool_;
  /// The single-population engine doing the work; rebuilt by init() so
  /// every run starts from the configured seed.
  std::optional<SimpleGa> inner_;
};

}  // namespace psga::ga
