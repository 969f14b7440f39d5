#include "src/ga/simple_ga.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "src/ga/problems.h"
#include "src/sched/classics.h"
#include "src/sched/heuristics.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

ProblemPtr ta001_problem() {
  return std::make_shared<FlowShopProblem>(
      sched::make_taillard(sched::taillard_20x5().front()));
}

GaConfig small_config(std::uint64_t seed = 1) {
  GaConfig cfg;
  cfg.population = 40;
  cfg.termination.max_generations = 40;
  cfg.seed = seed;
  return cfg;
}

TEST(SimpleGa, ImprovesOverRandomInitialization) {
  SimpleGa ga(ta001_problem(), small_config());
  const GaResult result = ga.run();
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.best_objective, result.history.front());
}

TEST(SimpleGa, HistoryIsMonotonicallyNonIncreasing) {
  SimpleGa ga(ta001_problem(), small_config(3));
  const GaResult result = ga.run();
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
}

TEST(SimpleGa, DeterministicForFixedSeed) {
  SimpleGa a(ta001_problem(), small_config(7));
  SimpleGa b(ta001_problem(), small_config(7));
  const GaResult ra = a.run();
  const GaResult rb = b.run();
  EXPECT_EQ(ra.best_objective, rb.best_objective);
  EXPECT_EQ(ra.history, rb.history);
  EXPECT_EQ(ra.best.seq, rb.best.seq);
}

TEST(SimpleGa, DifferentSeedsExploreDifferently) {
  SimpleGa a(ta001_problem(), small_config(1));
  SimpleGa b(ta001_problem(), small_config(2));
  EXPECT_NE(a.run().history, b.run().history);
}

TEST(SimpleGa, BestGenomeMatchesReportedObjective) {
  SimpleGa ga(ta001_problem(), small_config(5));
  const GaResult result = ga.run();
  const auto problem = ta001_problem();
  EXPECT_DOUBLE_EQ(problem->objective(result.best), result.best_objective);
  EXPECT_TRUE(genome_valid(result.best, problem->traits()));
}

TEST(SimpleGa, MaxGenerationsHonored) {
  GaConfig cfg = small_config();
  cfg.termination.max_generations = 13;
  SimpleGa ga(ta001_problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_EQ(result.generations, 13);
  EXPECT_EQ(result.history.size(), 14u);  // initial + 13 generations
}

TEST(SimpleGa, TargetObjectiveStopsEarly) {
  GaConfig cfg = small_config();
  cfg.termination.max_generations = 1000;
  cfg.termination.target_objective = 1e9;  // any value qualifies
  SimpleGa ga(ta001_problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_EQ(result.generations, 0);
}

TEST(SimpleGa, StagnationStopsEarly) {
  GaConfig cfg = small_config();
  cfg.termination.max_generations = 5000;
  cfg.termination.stagnation_generations = 5;
  cfg.population = 10;
  SimpleGa ga(ta001_problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_LT(result.generations, 5000);
}

TEST(SimpleGa, TimeLimitStops) {
  GaConfig cfg = small_config();
  cfg.termination.max_generations = 1 << 30;
  cfg.termination.max_seconds = 0.1;
  SimpleGa ga(ta001_problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_LT(result.seconds, 2.0);
}

TEST(SimpleGa, EvaluationCountMatchesPopulationTimesGenerations) {
  GaConfig cfg = small_config();
  cfg.population = 30;
  cfg.termination.max_generations = 10;
  SimpleGa ga(ta001_problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_EQ(result.evaluations, 30LL * 11);  // init + 10 generations
}

TEST(SimpleGa, ElitismKeepsBest) {
  // With elites = 2 the best objective can never regress between steps —
  // already covered by monotone history — and the population must contain
  // the best individual after each step.
  GaConfig cfg = small_config();
  cfg.elites = 2;
  SimpleGa ga(ta001_problem(), cfg);
  ga.init();
  for (int g = 0; g < 10; ++g) {
    ga.step();
    const double best = ga.best_objective();
    const auto& objectives = ga.objectives();
    EXPECT_NE(std::find(objectives.begin(), objectives.end(), best),
              objectives.end());
  }
}

TEST(SimpleGa, ImmigrationKeepsPopulationSize) {
  GaConfig cfg = small_config();
  cfg.immigration_fraction = 0.2;
  SimpleGa ga(ta001_problem(), cfg);
  ga.init();
  for (int g = 0; g < 5; ++g) {
    ga.step();
    EXPECT_EQ(ga.population().size(), 40u);
  }
}

TEST(SimpleGa, OutOfRangeImmigrationOrElitesThrow) {
  // A negative immigration fraction made step() breed more children than
  // the population has slots and write past the next generation; the
  // constructor refuses it, and every other value outside [0, 1], for
  // configs built in code as the spec parser does for text.
  for (const double fraction :
       {-1.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(fraction);
    GaConfig cfg = small_config();
    cfg.immigration_fraction = fraction;
    EXPECT_THROW(SimpleGa(ta001_problem(), cfg), std::invalid_argument);
  }
  GaConfig negative_elites = small_config();
  negative_elites.elites = -1;
  EXPECT_THROW(SimpleGa(ta001_problem(), negative_elites),
               std::invalid_argument);
  for (const double fraction : {0.0, 1.0}) {
    GaConfig cfg = small_config();
    cfg.immigration_fraction = fraction;
    SimpleGa ga(ta001_problem(), cfg);
    ga.init();
    ga.step();
    EXPECT_EQ(ga.population().size(), 40u);
  }
}

TEST(SimpleGa, ReferenceFitnessTransformRuns) {
  const auto problem = ta001_problem();
  GaConfig cfg = small_config();
  cfg.transform = FitnessTransform::kReference;
  // Fbar from NEH, as Eq. (1) prescribes ("some heuristic solution").
  cfg.reference_objective = static_cast<double>(sched::neh_makespan(
      sched::make_taillard(sched::taillard_20x5().front())));
  SimpleGa ga(problem, cfg);
  const GaResult result = ga.run();
  EXPECT_LT(result.best_objective, result.history.front());
}

TEST(SimpleGa, VariableMutationRateInterpolates) {
  GaConfig cfg = small_config();
  cfg.ops = default_operators(*ta001_problem());
  cfg.ops.mutation_rate = 0.5;
  cfg.ops.mutation_rate_final = 0.1;
  cfg.termination.max_generations = 11;
  SimpleGa ga(ta001_problem(), cfg);
  ga.init();
  EXPECT_DOUBLE_EQ(ga.current_mutation_rate(), 0.5);
  for (int g = 0; g < 10; ++g) ga.step();
  EXPECT_DOUBLE_EQ(ga.current_mutation_rate(), 0.1);
}

TEST(SimpleGa, NicheSharingPreservesDiversity) {
  // The niche penalty (survey §I) keeps the population more spread out
  // under heavy convergence pressure at the same budget. Compare mean
  // pairwise Hamming distance after a long run with a small population.
  auto mean_distance = [](const SimpleGa& ga) {
    const auto& pop = ga.population();
    double acc = 0.0;
    int pairs = 0;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      for (std::size_t j = i + 1; j < pop.size(); ++j) {
        acc += hamming_distance(pop[i], pop[j]);
        ++pairs;
      }
    }
    return acc / pairs;
  };
  GaConfig plain = small_config(31);
  plain.population = 24;
  plain.elites = 4;
  plain.termination.max_generations = 200;
  plain.ops.selection = std::make_shared<RouletteSelection>();
  plain.ops.mutation_rate = 0.05;
  GaConfig niched = plain;
  niched.niche_radius = 20;  // chromosome length is 20: wide niches

  double plain_distance = 0.0;
  double niched_distance = 0.0;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    plain.seed = seed;
    niched.seed = seed;
    SimpleGa a(ta001_problem(), plain);
    a.init();
    for (int g = 0; g < 200; ++g) a.step();
    plain_distance += mean_distance(a);
    SimpleGa b(ta001_problem(), niched);
    b.init();
    for (int g = 0; g < 200; ++g) b.step();
    niched_distance += mean_distance(b);
  }
  EXPECT_GT(niched_distance, plain_distance);
}

TEST(SimpleGa, NicheSharingStillImproves) {
  GaConfig cfg = small_config(32);
  cfg.niche_radius = 8;
  SimpleGa ga(ta001_problem(), cfg);
  const GaResult result = ga.run();
  EXPECT_LT(result.best_objective, result.history.front());
}

TEST(SimpleGa, WarmStartSeedsInitialPopulation) {
  const auto inst = sched::make_taillard(sched::taillard_20x5().front());
  const auto problem = std::make_shared<FlowShopProblem>(inst);
  Genome neh;
  neh.seq = sched::neh_permutation(inst);
  const double neh_value = problem->objective(neh);

  GaConfig cfg = small_config(17);
  cfg.initial_population = {neh};
  SimpleGa ga(problem, cfg);
  ga.init();
  // The initial best is at least as good as the injected NEH solution.
  EXPECT_LE(ga.best_objective(), neh_value);
  EXPECT_EQ(ga.population().front().seq, neh.seq);
}

TEST(SimpleGa, WarmStartNeverWorsensFinalResult) {
  const auto inst = sched::make_taillard(sched::taillard_20x5().front());
  const auto problem = std::make_shared<FlowShopProblem>(inst);
  Genome neh;
  neh.seq = sched::neh_permutation(inst);
  const double neh_value = problem->objective(neh);
  GaConfig cfg = small_config(18);
  cfg.initial_population = {neh};
  SimpleGa ga(problem, cfg);
  // Elitism keeps the seeded solution alive, so the final best can only
  // be <= NEH.
  EXPECT_LE(ga.run().best_objective, neh_value);
}

TEST(SimpleGa, ExcessSeedsAreTruncated) {
  const auto problem = ta001_problem();
  par::Rng rng(9);
  GaConfig cfg = small_config(19);
  cfg.population = 5;
  for (int i = 0; i < 10; ++i) {
    cfg.initial_population.push_back(problem->random_genome(rng));
  }
  SimpleGa ga(problem, cfg);
  ga.init();
  EXPECT_EQ(ga.population().size(), 5u);
}

TEST(SimpleGa, ReplaceIndividualUpdatesBest) {
  SimpleGa ga(ta001_problem(), small_config());
  ga.init();
  Genome injected = ga.population().front();
  ga.replace_individual(3, injected, 1.0);  // absurdly good objective
  EXPECT_DOUBLE_EQ(ga.best_objective(), 1.0);
  EXPECT_EQ(ga.best_index(), 3);
}

TEST(SimpleGa, AbsorbGrowsPopulation) {
  SimpleGa ga(ta001_problem(), small_config());
  ga.init();
  const std::vector<Genome> extra = {ga.population().front()};
  const std::vector<double> objectives = {2.0};
  ga.absorb(extra, objectives);
  EXPECT_EQ(ga.population().size(), 41u);
  EXPECT_DOUBLE_EQ(ga.best_objective(), 2.0);
}

TEST(SimpleGa, StagnationFractionBounds) {
  SimpleGa ga(ta001_problem(), small_config());
  ga.init();
  const double f = ga.stagnation_fraction(3);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  // Distance threshold beyond genome length: everything is "close".
  EXPECT_DOUBLE_EQ(ga.stagnation_fraction(1000), 1.0);
}

}  // namespace
}  // namespace psga::ga
