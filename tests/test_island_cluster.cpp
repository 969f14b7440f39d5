#include "src/ga/island_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"
#include "src/sched/generators.h"
#include "src/sched/open_shop.h"

namespace psga::ga {
namespace {

ProblemPtr open_shop_problem() {
  return std::make_shared<OpenShopProblem>(
      sched::random_open_shop(8, 5, 77));
}

ClusterIslandConfig config(int ranks = 4) {
  ClusterIslandConfig cfg;
  cfg.ranks = ranks;
  cfg.base.population = 20;
  cfg.base.termination.max_generations = 20;
  cfg.neighbor_interval = 4;
  cfg.broadcast_interval = 10;
  return cfg;
}

TEST(ClusterIsland, RunsAndImproves) {
  const auto result = run_cluster_island_ga(open_shop_problem(), config());
  EXPECT_GT(result.best_objective, 0.0);
  EXPECT_EQ(result.islands->best.size(), 4u);
  for (double b : result.islands->best) {
    EXPECT_GE(b, result.best_objective);
  }
}

TEST(ClusterIsland, DeterministicAcrossRuns) {
  const auto a = run_cluster_island_ga(open_shop_problem(), config());
  const auto b = run_cluster_island_ga(open_shop_problem(), config());
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
  EXPECT_EQ(a.islands->best, b.islands->best);
  EXPECT_EQ(a.best.seq, b.best.seq);
}

TEST(ClusterIsland, TiedRanksResolveToTheFirstInRankOrder) {
  // Ranks often tie on ft06's best makespan; the returned genome must be
  // the first tied rank's whatever order the rank threads finish in.
  for (const std::uint64_t seed : {1ull, 7ull, 11ull}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " repeat=" + std::to_string(repeat));
      const RunResult r =
          Solver::build(RunSpec::parse(
                            "problem=jobshop instance=ft06 engine=cluster "
                            "ranks=4 interval=2 broadcast=4 pop=16 seed=" +
                            std::to_string(seed)))
              .run(StopCondition::generations(20));
      ASSERT_TRUE(r.islands.has_value());
      const auto& best = r.islands->best;
      const auto first = static_cast<std::size_t>(
          std::min_element(best.begin(), best.end()) - best.begin());
      EXPECT_EQ(r.best_objective, best[first]);
      EXPECT_EQ(r.best.seq, r.islands->best_genome[first].seq);
    }
  }
}

TEST(ClusterIsland, SingleRankWorks) {
  const auto result = run_cluster_island_ga(open_shop_problem(), config(1));
  EXPECT_EQ(result.islands->best.size(), 1u);
  EXPECT_DOUBLE_EQ(result.islands->best[0], result.best_objective);
}

TEST(ClusterIsland, FiveRanksMatchHarmananiSetup) {
  // [33] ran on a 5-machine Beowulf cluster.
  const auto result = run_cluster_island_ga(open_shop_problem(), config(5));
  EXPECT_EQ(result.islands->best.size(), 5u);
  EXPECT_GT(result.evaluations, 0);
}

TEST(ClusterIsland, MigrationHelpsVersusIsolation) {
  // Best objective with migration should be no worse than the same total
  // effort without (statistically; fixed seeds make this reproducible).
  ClusterIslandConfig with = config(4);
  ClusterIslandConfig without = config(4);
  without.neighbor_interval = 0;
  without.broadcast_interval = 0;
  const auto rw = run_cluster_island_ga(open_shop_problem(), with);
  const auto ro = run_cluster_island_ga(open_shop_problem(), without);
  EXPECT_LE(rw.best_objective, ro.best_objective * 1.05);
}

TEST(ClusterIsland, JobShopGenomesSurviveTransport) {
  // Migration serializes genomes; job-shop repetition chromosomes must
  // arrive structurally valid (validated indirectly: the run completes and
  // the final best genome is valid).
  auto js = std::make_shared<JobShopProblem>(sched::ft06().instance);
  ClusterIslandConfig cfg = config(3);
  cfg.neighbor_interval = 1;  // migrate every generation: stress transport
  const auto result = run_cluster_island_ga(js, cfg);
  EXPECT_TRUE(genome_valid(result.best, js->traits()));
  EXPECT_GE(result.best_objective, 55.0);
}

}  // namespace
}  // namespace psga::ga
