#include "src/ga/cellular_ga.h"

#include <gtest/gtest.h>

#include "src/ga/problems.h"
#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr problem() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

CellularConfig config(std::uint64_t seed = 1) {
  CellularConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.termination.max_generations = 25;
  cfg.seed = seed;
  return cfg;
}

TEST(CellularGa, Improves) {
  CellularGa ga(problem(), config());
  const GaResult result = ga.run();
  EXPECT_LT(result.best_objective, result.history.front());
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
}

TEST(CellularGa, IndependentOfThreadCount) {
  // Per-cell Rng streams make the outcome a pure function of the seed.
  std::vector<double> history1;
  {
    par::ThreadPool pool(1);
    CellularGa ga(problem(), config(42), &pool);
    history1 = ga.run().history;
  }
  for (int threads : {2, 8}) {
    par::ThreadPool pool(threads);
    CellularGa ga(problem(), config(42), &pool);
    EXPECT_EQ(ga.run().history, history1) << "threads=" << threads;
  }
}

TEST(CellularGa, DifferentSeedsDiffer) {
  par::ThreadPool pool(4);
  CellularGa a(problem(), config(1), &pool);
  CellularGa b(problem(), config(2), &pool);
  EXPECT_NE(a.run().history, b.run().history);
}

TEST(CellularGa, EvaluationsAccountedPerCellPerGeneration) {
  CellularConfig cfg = config();
  cfg.termination.max_generations = 5;
  CellularGa ga(problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_EQ(result.evaluations, 64LL * 6);  // init + 5 steps
}

TEST(CellularGa, ReplaceIfBetterNeverRegressesCells) {
  CellularConfig cfg = config(3);
  cfg.replace_if_better = true;
  cfg.termination.max_generations = 1;
  CellularGa ga(problem(), cfg);
  ga.init();
  std::vector<double> before;
  for (int c = 0; c < ga.cells(); ++c) before.push_back(ga.objective_at(c));
  ga.step();
  for (int c = 0; c < ga.cells(); ++c) {
    EXPECT_LE(ga.objective_at(c), before[static_cast<std::size_t>(c)]);
  }
}

TEST(CellularGa, BestReportedIsInGridHistory) {
  CellularGa ga(problem(), config(5));
  const GaResult result = ga.run();
  const auto p = problem();
  EXPECT_DOUBLE_EQ(p->objective(result.best), result.best_objective);
  EXPECT_TRUE(genome_valid(result.best, p->traits()));
}

TEST(CellularGa, ReplaceCellInjects) {
  CellularGa ga(problem(), config(6));
  ga.init();
  const Genome g = ga.individual(0);
  ga.replace_cell(5, g, 0.5);
  EXPECT_DOUBLE_EQ(ga.objective_at(5), 0.5);
  EXPECT_DOUBLE_EQ(ga.best_objective(), 0.5);
}

TEST(CellularGa, MooreNeighborhoodLargerThanVonNeumann) {
  // Behavioural proxy: Moore radius-1 has 8 neighbors vs 4, so diffusion
  // is faster; just check both run and produce valid results.
  CellularConfig von = config(7);
  von.neighborhood = Neighborhood::kVonNeumann;
  CellularConfig moore = config(7);
  moore.neighborhood = Neighborhood::kMoore;
  CellularGa a(problem(), von);
  CellularGa b(problem(), moore);
  const GaResult ra = a.run();
  const GaResult rb = b.run();
  EXPECT_GT(ra.evaluations, 0);
  EXPECT_GT(rb.evaluations, 0);
  EXPECT_NE(ra.history, rb.history);  // different dynamics
}

TEST(CellularGa, CellsWithoutNeighborsMateWithThemselves) {
  // A 1x1 grid, and radius 0 on any grid, leave every neighborhood
  // empty; the mate draw divided by its size (SIGFPE) before.
  CellularConfig one_cell = config();
  one_cell.width = 1;
  one_cell.height = 1;
  CellularConfig no_radius = config();
  no_radius.radius = 0;
  for (const CellularConfig& cfg : {one_cell, no_radius}) {
    CellularGa ga(problem(), cfg);
    const GaResult result = ga.run();
    ASSERT_FALSE(result.history.empty());
    EXPECT_LE(result.best_objective, result.history.front());
  }
}

TEST(CellularGa, WorksOnJobShopEncoding) {
  auto js = std::make_shared<JobShopProblem>(sched::ft06().instance);
  CellularConfig cfg = config(8);
  cfg.width = 6;
  cfg.height = 6;
  CellularGa ga(js, cfg);
  const GaResult result = ga.run();
  EXPECT_TRUE(genome_valid(result.best, js->traits()));
  EXPECT_GE(result.best_objective, 55.0);  // ft06 optimum bound
}

}  // namespace
}  // namespace psga::ga
