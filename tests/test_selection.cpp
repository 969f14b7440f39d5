#include "src/ga/selection.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/ga/registry.h"

namespace psga::ga {
namespace {

std::vector<int> tally(const Selection& sel, std::span<const double> fitness,
                       int draws, std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<int> counts(fitness.size(), 0);
  for (int i = 0; i < draws; ++i) {
    ++counts[static_cast<std::size_t>(sel.pick(fitness, rng))];
  }
  return counts;
}

TEST(Roulette, ProportionalToFitness) {
  RouletteSelection sel;
  const std::vector<double> fitness = {1.0, 3.0};
  const auto counts = tally(sel, fitness, 20000, 1);
  EXPECT_NEAR(counts[1] / 20000.0, 0.75, 0.02);
}

TEST(Roulette, ZeroTotalFallsBackToUniform) {
  RouletteSelection sel;
  const std::vector<double> fitness = {0.0, 0.0, 0.0};
  const auto counts = tally(sel, fitness, 9000, 2);
  for (int c : counts) EXPECT_NEAR(c / 9000.0, 1.0 / 3.0, 0.03);
}

TEST(Roulette, NegativeFitnessTreatedAsZero) {
  RouletteSelection sel;
  const std::vector<double> fitness = {-5.0, 1.0};
  const auto counts = tally(sel, fitness, 5000, 3);
  EXPECT_EQ(counts[0], 0);
}

TEST(Sus, CoversProportionally) {
  StochasticUniversalSelection sel;
  const std::vector<double> fitness = {1.0, 1.0, 2.0};
  par::Rng rng(4);
  std::vector<int> counts(3, 0);
  for (int round = 0; round < 1000; ++round) {
    for (int idx : sel.pick_many(fitness, 4, rng)) {
      ++counts[static_cast<std::size_t>(idx)];
    }
  }
  const double total = 4000.0;
  EXPECT_NEAR(counts[2] / total, 0.5, 0.03);
  EXPECT_NEAR(counts[0] / total, 0.25, 0.03);
}

TEST(Sus, LowVarianceGuarantee) {
  // With equal fitness and n pointers = n individuals, SUS must pick every
  // individual exactly once.
  StochasticUniversalSelection sel;
  const std::vector<double> fitness = {1.0, 1.0, 1.0, 1.0};
  par::Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    const auto picks = sel.pick_many(fitness, 4, rng);
    std::vector<int> counts(4, 0);
    for (int idx : picks) ++counts[static_cast<std::size_t>(idx)];
    for (int c : counts) EXPECT_EQ(c, 1);
  }
}

TEST(Tournament, HigherKMoreSelective) {
  const std::vector<double> fitness = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto k2 = tally(TournamentSelection(2), fitness, 20000, 6);
  const auto k5 = tally(TournamentSelection(5), fitness, 20000, 7);
  // The best individual wins more often with a bigger tournament.
  EXPECT_GT(k5[4], k2[4]);
}

TEST(Tournament, AlwaysPicksValidIndex) {
  TournamentSelection sel(3);
  const std::vector<double> fitness = {2.0};
  par::Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sel.pick(fitness, rng), 0);
}

TEST(Rank, OrderMattersNotMagnitude) {
  // Huge fitness gaps do not distort rank selection: compare against
  // roulette on the same values.
  const std::vector<double> fitness = {1.0, 1e9};
  const auto rank_counts = tally(RankSelection(1.8), fitness, 20000, 9);
  const auto roulette_counts = tally(RouletteSelection{}, fitness, 20000, 10);
  // Roulette almost never picks index 0; rank still does ~30% of the time
  // (pressure 1.8 -> probabilities 0.1/0.9... actually (2-1.8)/2=0.1 and
  // 1.8/2=0.9 over two ranks).
  EXPECT_LT(roulette_counts[0], 10);
  EXPECT_NEAR(rank_counts[0] / 20000.0, 0.1, 0.02);
}

TEST(ElitistRoulette, BiasesTowardTopFraction) {
  ElitistRouletteSelection sel(0.2, 1.0);  // always elite mode
  const std::vector<double> fitness = {1.0, 2.0, 3.0, 4.0, 100.0};
  const auto counts = tally(sel, fitness, 5000, 11);
  // With elite_fraction 0.2 of 5 = 1 elite: always index 4.
  EXPECT_EQ(counts[4], 5000);
}

TEST(ElitistRoulette, FallsBackToRoulette) {
  ElitistRouletteSelection sel(0.2, 0.0);  // never elite mode
  const std::vector<double> fitness = {1.0, 3.0};
  const auto counts = tally(sel, fitness, 20000, 12);
  EXPECT_NEAR(counts[1] / 20000.0, 0.75, 0.02);
}

TEST(Selection, PickManyDefaultMatchesCount) {
  TournamentSelection sel(2);
  const std::vector<double> fitness = {1.0, 2.0, 3.0};
  par::Rng rng(13);
  EXPECT_EQ(sel.pick_many(fitness, 7, rng).size(), 7u);
  EXPECT_TRUE(sel.pick_many(fitness, 0, rng).empty());
}

/// One individual, zero fitness mass, negative and tied values, 40 values
/// in three tie groups (too many for a sort to stay stable by accident),
/// and a random population of 100.
std::vector<std::vector<double>> pick_populations() {
  par::Rng setup(14);
  std::vector<std::vector<double>> populations = {
      {2.0},
      {0.0, 0.0, 0.0},
      {-1.0, 0.0, 3.0, 3.0, 0.5},
      {1.0, 1.0, 1.0, 1.0, 2.0, 2.0},
  };
  std::vector<double> tied(40);
  for (std::size_t i = 0; i < tied.size(); ++i) {
    tied[i] = static_cast<double>(i % 3);
  }
  populations.push_back(tied);
  std::vector<double> random(100);
  for (auto& f : random) f = setup.uniform(0.1, 1.0);
  populations.push_back(random);
  return populations;
}

TEST(Selection, PickManyMatchesSequentialPicks) {
  // Batch overrides may hoist per-call work (sums, ranks, elite order) but
  // must pick and draw exactly as `count` independent pick() calls. SUS is
  // the exception by design: its pick_many is one equally-spaced sweep.
  for (const char* name : {"roulette", "rank", "elitist-roulette",
                           "tournament2", "tournament5"}) {
    const SelectionPtr sel = make_selection(name);
    for (const auto& fitness : pick_populations()) {
      for (int count : {1, 7, 100}) {
        par::Rng batch_rng(static_cast<std::uint64_t>(count) + fitness.size());
        par::Rng single_rng = batch_rng;
        const std::vector<int> batch = sel->pick_many(fitness, count, batch_rng);
        std::vector<int> single;
        for (int i = 0; i < count; ++i) {
          single.push_back(sel->pick(fitness, single_rng));
        }
        EXPECT_EQ(batch, single) << name << " n=" << fitness.size();
        for (int draw = 0; draw < 4; ++draw) {
          EXPECT_EQ(batch_rng(), single_rng()) << name << " RNG state";
        }
      }
    }
  }
}

TEST(Selection, PicksPinned) {
  // The test above compares pick() with pick_many(), so a change that
  // moved both alike would pass it. These constants pin the picks and
  // draws absolutely; they were recorded from the earlier implementations
  // that re-summed, re-ranked or re-sorted the population on every pick.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"roulette", 0xad3f9c89c795a15fULL},
      {"sus", 0xe8a88ee78b124f6cULL},
      {"rank", 0x463f11e8268ef3d5ULL},
      {"elitist-roulette", 0x39377a5cdfe9254cULL},
      {"tournament2", 0xa4fd08c799e8bd8fULL},
      {"tournament5", 0x6a4ce7d5a43bdcb6ULL},
  };
  for (const auto& [name, digest] : pinned) {
    const SelectionPtr sel = make_selection(name);
    par::Rng rng(0x5e1ec7);
    std::uint64_t folded = 0;
    const auto fold = [&folded](std::uint64_t value) {
      std::uint64_t state = folded ^ value;
      folded = par::splitmix64(state);
    };
    for (const auto& fitness : pick_populations()) {
      for (int index : sel->pick_many(fitness, 50, rng)) {
        fold(static_cast<std::uint64_t>(index));
      }
      fold(static_cast<std::uint64_t>(sel->pick(fitness, rng)));
      fold(rng());
    }
    EXPECT_EQ(folded, digest) << name << std::hex << " got 0x" << folded;
  }
}

TEST(Selection, Names) {
  EXPECT_EQ(RouletteSelection{}.name(), "roulette");
  EXPECT_EQ(StochasticUniversalSelection{}.name(), "sus");
  EXPECT_EQ(TournamentSelection{4}.name(), "tournament4");
  EXPECT_EQ(RankSelection{}.name(), "rank");
  EXPECT_EQ(ElitistRouletteSelection{}.name(), "elitist-roulette");
}

}  // namespace
}  // namespace psga::ga
