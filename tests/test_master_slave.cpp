#include <gtest/gtest.h>

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

GaConfig config(std::uint64_t seed = 11) {
  GaConfig cfg;
  cfg.population = 48;
  cfg.termination.max_generations = 25;
  cfg.seed = seed;
  return cfg;
}

TEST(MasterSlave, TraceIdenticalToSerialGa) {
  // The survey: the master-slave model "is the only one that does not
  // affect the behavior of the algorithm". Enforce it bit-exactly.
  SimpleGa serial(problem(), config());
  const GaResult serial_result = serial.run();
  for (int threads : {1, 2, 4, 8}) {
    par::ThreadPool pool(threads);
    const EnginePtr parallel =
        make_master_slave_engine(problem(), config(), &pool);
    const GaResult parallel_result = parallel->run();
    EXPECT_EQ(serial_result.history, parallel_result.history)
        << "threads=" << threads;
    EXPECT_EQ(serial_result.best.seq, parallel_result.best.seq);
    EXPECT_EQ(serial_result.evaluations, parallel_result.evaluations);
  }
}

TEST(MasterSlave, TraceIdenticalOnJobShop) {
  auto js = std::make_shared<JobShopProblem>(sched::ft06().instance);
  GaConfig cfg = config(5);
  SimpleGa serial(js, cfg);
  par::ThreadPool pool(6);
  const EnginePtr parallel = make_master_slave_engine(js, cfg, &pool);
  EXPECT_EQ(serial.run().history, parallel->run().history);
}

TEST(MasterSlave, DeterministicAcrossRuns) {
  par::ThreadPool pool(4);
  const EnginePtr a = make_master_slave_engine(problem(), config(9), &pool);
  const EnginePtr b = make_master_slave_engine(problem(), config(9), &pool);
  EXPECT_EQ(a->run().history, b->run().history);
}

TEST(MasterSlave, TimeBudgetModeCountsExploredSolutions) {
  par::ThreadPool pool(4);
  const EnginePtr ga = make_master_slave_engine(problem(), config(), &pool);
  const GaResult result = ga->run(StopCondition::time_budget(0.2));
  EXPECT_GT(result.evaluations, 0);
  EXPECT_GE(result.seconds, 0.15);
  EXPECT_LT(result.seconds, 3.0);
  // More budget => at least as many explored solutions.
  const EnginePtr ga2 = make_master_slave_engine(problem(), config(), &pool);
  const GaResult longer = ga2->run(StopCondition::time_budget(0.5));
  EXPECT_GT(longer.evaluations, result.evaluations / 2);
}

TEST(MasterSlave, UsesDefaultPoolWhenNull) {
  const EnginePtr ga = make_master_slave_engine(problem(), config());
  const GaResult result = ga->run();
  EXPECT_GT(result.evaluations, 0);
}

TEST(MasterSlave, BudgetModeIgnoresGenerationCap) {
  GaConfig cfg = config();
  cfg.termination.max_generations = 1;  // would stop immediately in run()
  par::ThreadPool pool(4);
  const EnginePtr ga = make_master_slave_engine(problem(), cfg, &pool);
  const GaResult result = ga->run(StopCondition::time_budget(0.15));
  EXPECT_GT(result.generations, 1);
}

}  // namespace
}  // namespace psga::ga
