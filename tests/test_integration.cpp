// Cross-module integration tests: full engine runs on classic instances,
// checking that the library converges to sensible neighbourhoods of the
// known optima within small budgets.
#include <gtest/gtest.h>

#include "src/ga/island_ga.h"
#include "src/ga/problems.h"
#include "src/ga/simple_ga.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/heuristics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

TEST(Integration, IslandGaGetsCloseToFt06Optimum) {
  auto problem = std::make_shared<JobShopProblem>(
      sched::ft06().instance, JobShopProblem::Decoder::kGifflerThompson);
  IslandGaConfig cfg;
  cfg.islands = 4;
  cfg.base.population = 40;
  cfg.base.termination.max_generations = 60;
  cfg.base.seed = 7;
  cfg.migration.interval = 5;
  IslandGa ga(problem, cfg);
  const RunResult result = ga.run();
  // ft06 optimum is 55; the GT-decoded island GA should land within 10%.
  EXPECT_GE(result.best_objective, 55.0);
  EXPECT_LE(result.best_objective, 60.5);
}

TEST(Integration, SimpleGaBeatsNehGivenTime) {
  // On ta001 a modest GA seeded purely at random should at least approach
  // NEH; with a decent budget it usually beats it.
  const auto bench = sched::taillard_20x5().front();
  const auto inst = sched::make_taillard(bench);
  auto problem = std::make_shared<FlowShopProblem>(inst);
  GaConfig cfg;
  cfg.population = 80;
  cfg.termination.max_generations = 150;
  cfg.seed = 3;
  SimpleGa ga(problem, cfg);
  const GaResult result = ga.run();
  const double neh = static_cast<double>(sched::neh_makespan(inst));
  EXPECT_LE(result.best_objective, neh * 1.03);
  EXPECT_GE(result.best_objective, static_cast<double>(bench.best_known));
}

TEST(Integration, DecodedScheduleOfGaBestIsFeasible) {
  auto problem = std::make_shared<JobShopProblem>(sched::ft10().instance);
  GaConfig cfg;
  cfg.population = 30;
  cfg.termination.max_generations = 20;
  SimpleGa ga(problem, cfg);
  const GaResult result = ga.run();
  const sched::Schedule schedule = problem->decode(result.best);
  EXPECT_EQ(validate(schedule, problem->instance().validation_spec()),
            std::nullopt);
  EXPECT_DOUBLE_EQ(static_cast<double>(schedule.makespan()),
                   result.best_objective);
}

TEST(Integration, MasterSlaveOnLargeInstanceMatchesSerial) {
  // End-to-end behavioural invariance on a bigger problem (ft20).
  auto problem = std::make_shared<JobShopProblem>(sched::ft20().instance);
  GaConfig cfg;
  cfg.population = 40;
  cfg.termination.max_generations = 15;
  cfg.seed = 99;
  SimpleGa serial(problem, cfg);
  par::ThreadPool pool(8);
  const EnginePtr parallel = make_master_slave_engine(problem, cfg, &pool);
  const GaResult rs = serial.run();
  const GaResult rp = parallel->run();
  EXPECT_EQ(rs.history, rp.history);
  EXPECT_EQ(rs.best.seq, rp.best.seq);
}

TEST(Integration, AllEnginesAgreeOnObjectiveSemantics) {
  // Same problem, different engines: every reported best objective must
  // be reproducible by re-evaluating the reported best genome.
  auto problem = std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5()[1]));
  GaConfig cfg;
  cfg.population = 24;
  cfg.termination.max_generations = 15;

  SimpleGa simple(problem, cfg);
  const GaResult r1 = simple.run();
  EXPECT_DOUBLE_EQ(problem->objective(r1.best), r1.best_objective);

  IslandGaConfig icfg;
  icfg.islands = 3;
  icfg.base = cfg;
  IslandGa island(problem, icfg);
  const RunResult r2 = island.run();
  EXPECT_DOUBLE_EQ(problem->objective(r2.best),
                   r2.best_objective);
}

}  // namespace
}  // namespace psga::ga
