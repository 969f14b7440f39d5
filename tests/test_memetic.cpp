#include "src/ga/memetic.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr problem() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

MemeticConfig config(std::uint64_t seed = 1) {
  MemeticConfig cfg;
  cfg.base.population = 30;
  cfg.base.termination.max_generations = 30;
  cfg.base.seed = seed;
  cfg.interval = 5;
  cfg.refine_count = 2;
  cfg.search_budget = 60;
  return cfg;
}

TEST(MemeticGa, ImprovesAndMonotone) {
  MemeticGa ga(problem(), config());
  const GaResult result = ga.run();
  EXPECT_LT(result.best_objective, result.history.front());
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
}

TEST(MemeticGa, Deterministic) {
  MemeticGa a(problem(), config(9));
  MemeticGa b(problem(), config(9));
  EXPECT_EQ(a.run().history, b.run().history);
}

TEST(MemeticGa, RefineCountOutsideItsRangeThrows) {
  // A negative count handed std::partial_sort a middle before begin() on
  // the first local-search wave.
  for (const int refine : {-3, -1, SolverSpec::kMaxPopulation + 1}) {
    SCOPED_TRACE(refine);
    MemeticConfig cfg = config();
    cfg.refine_count = refine;
    EXPECT_THROW(MemeticGa(problem(), cfg), std::invalid_argument);
  }
  MemeticConfig none = config();
  none.refine_count = 0;
  none.interval = 1;
  MemeticGa ga(problem(), none);
  EXPECT_EQ(ga.run(StopCondition::generations(2)).generations, 2);
}

TEST(MemeticGa, AccountsLocalSearchEvaluations) {
  MemeticConfig cfg = config();
  MemeticGa with(problem(), cfg);
  cfg.interval = 0;  // no local search waves
  MemeticGa without(problem(), cfg);
  EXPECT_GT(with.run().evaluations, without.run().evaluations);
}

TEST(MemeticGa, BeatsOrMatchesPlainGaAtSameSeed) {
  // At the same generation budget, adding local search should not hurt
  // the final best (it only ever replaces individuals with better ones).
  MemeticConfig cfg = config(5);
  MemeticGa memetic(problem(), cfg);
  const double memetic_best = memetic.run().best_objective;

  SimpleGa plain(problem(), cfg.base);
  const double plain_best = plain.run().best_objective;
  EXPECT_LE(memetic_best, plain_best * 1.01);
}

TEST(MemeticGa, ValidBestGenome) {
  auto js = std::make_shared<JobShopProblem>(sched::ft06().instance);
  MemeticConfig cfg = config(3);
  MemeticGa ga(js, cfg);
  const GaResult result = ga.run();
  EXPECT_TRUE(genome_valid(result.best, js->traits()));
  EXPECT_GE(result.best_objective, 55.0);
}

TEST(MemeticGa, RedirectToggleRuns) {
  MemeticConfig cfg = config(7);
  cfg.use_redirect = false;
  MemeticGa ga(problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_GT(result.evaluations, 0);
}

}  // namespace
}  // namespace psga::ga
