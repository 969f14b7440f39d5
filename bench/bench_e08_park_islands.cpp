// E08 — Park et al. [26]: hybrid GA for job shop with operation-based
// representation; population split into 2 or 4 subpopulations with
// different operator settings, synchronous ring migration. Paper: the
// island GA improved both the BEST and the AVERAGE solution vs the single
// GA on MT (FT), ORB and ABZ benchmarks.
//
// Reproduction: single GA vs 2-island vs 4-island (heterogeneous
// operators, ring migration) on the embedded FT family + seeded random
// 10 x 10 job shops standing in for ABZ/ORB, whose data is not available
// offline, at equal total evaluation budget; best and average over
// replications.
#include "bench/bench_util.h"
#include "src/ga/solver.h"
#include "src/ga/problem_registry.h"
#include "src/ga/registry.h"
#include "src/sched/classics.h"
#include "src/sched/generators.h"

int main() {
  using namespace psga;
  bench::header("E08 park_islands", "Park et al. [26], §III.D",
                "2/4 heterogeneous islands with ring migration improve both "
                "best and average solution vs the single-population GA");

  struct Entry {
    std::string name;
    sched::JobShopInstance instance;
  };
  std::vector<Entry> entries;
  for (const auto* c : sched::classic_instances()) {
    entries.push_back({c->name, c->instance});
  }
  entries.push_back({"rnd10x10a", sched::random_job_shop(10, 10, 2601)});
  entries.push_back({"rnd10x10b", sched::random_job_shop(10, 10, 2602)});

  const int replications = 3 * bench::scale();
  const int total_pop = 96;
  // Long runs with fitness-proportionate selection (the selection family
  // of the surveyed era): the single population converges prematurely,
  // which is precisely the failure mode the island model fixes.
  const int generations = 150 * bench::scale();

  stats::Table table({"instance", "single best", "single avg", "2-isl best",
                      "2-isl avg", "4-isl best", "4-isl avg"});

  for (const Entry& entry : entries) {
    auto problem = ga::make_problem(
        entry.instance, ga::JobShopProblem::Decoder::kGifflerThompson);

    auto run_config = [&](int islands, std::uint64_t seed) {
      if (islands == 1) {
        ga::GaConfig cfg;
        cfg.population = total_pop;
        cfg.termination.max_generations = generations;
        cfg.seed = seed;
        cfg.ops.selection = ga::make_selection("roulette");
        cfg.ops.crossover = ga::make_crossover("jox");
        cfg.ops.mutation = ga::make_mutation("swap");
        cfg.ops.mutation_rate = 0.1;
        const auto engine = ga::make_engine(problem, cfg);
        return engine->run().best_objective;
      }
      ga::IslandGaConfig cfg;
      cfg.islands = islands;
      cfg.base.population = total_pop / islands;
      cfg.base.termination.max_generations = generations;
      cfg.base.seed = seed;
      cfg.migration.topology = ga::Topology::kRing;  // [26]'s static ring
      cfg.migration.interval = 10;
      // Different settings per subpopulation ([26]: four crossovers, two
      // selections across islands).
      const char* crossovers[] = {"jox", "ppx", "thx", "two-point"};
      const char* selections[] = {"roulette", "elitist-roulette"};
      for (int i = 0; i < islands; ++i) {
        ga::OperatorConfig ops;
        ops.selection = ga::make_selection(selections[i % 2]);
        ops.crossover = ga::make_crossover(crossovers[i % 4]);
        ops.mutation = ga::make_mutation(i % 2 == 0 ? "swap" : "shift");
        ops.mutation_rate = 0.1;
        cfg.per_island_ops.push_back(ops);
      }
      const auto engine = ga::make_engine(problem, cfg);
      return engine->run().best_objective;
    };

    auto replicate = [&](int islands) {
      std::vector<double> bests;
      for (int r = 0; r < replications; ++r) {
        bests.push_back(run_config(islands, 1000 + 17 * r));
      }
      return bests;
    };

    const auto single = replicate(1);
    const auto two = replicate(2);
    const auto four = replicate(4);
    table.add_row({entry.name, stats::Table::num(stats::min_of(single), 0),
                   stats::Table::num(stats::mean(single), 1),
                   stats::Table::num(stats::min_of(two), 0),
                   stats::Table::num(stats::mean(two), 1),
                   stats::Table::num(stats::min_of(four), 0),
                   stats::Table::num(stats::mean(four), 1)});
  }
  table.print();
  std::printf("\nExpected shape ([26]): island columns <= single columns for "
              "both best and average.\n");
  return 0;
}
