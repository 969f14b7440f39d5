// Memetic (GA + local search) engine: several surveyed works hybridize
// the GA with a neighborhood search — Mui et al. [17] (neighborhood
// mutation), Spanos et al. [29] (path relinking), Rashidi et al. [38]
// (local search + Redirect after the GA operators). MemeticGa is a
// SimpleGa that, every `interval` generations, hill-climbs the current
// elite individuals (optionally escaping via Redirect when a climb makes
// no progress).
#pragma once

#include "src/ga/simple_ga.h"

namespace psga::ga {

struct MemeticConfig {
  GaConfig base;
  int interval = 5;           ///< generations between local-search waves
  /// Individuals refined per wave (the best ones); in [0,
  /// SolverSpec::kMaxPopulation], or the constructor throws.
  int refine_count = 2;
  int search_budget = 100;    ///< objective evaluations per climb
  bool use_redirect = true;   ///< Redirect-restart a stuck climb ([38])
};

class MemeticGa final : public SimpleGa {
 public:
  MemeticGa(ProblemPtr problem, MemeticConfig config);

  /// Re-seeds the climb RNG, then SimpleGa::init().
  void init() override;
  /// One SimpleGa generation, plus a local-search wave when due. Climbs
  /// evaluate through the engine's Evaluator, so budgets and cache
  /// counters see one consistent number.
  void step() override;

 private:
  int interval_;
  int refine_count_;
  int search_budget_;
  bool use_redirect_;
  par::Rng climb_rng_{0};
  obs::Counter* climbs_ = nullptr;  ///< engine.climbs (local-search waves)
};

}  // namespace psga::ga
