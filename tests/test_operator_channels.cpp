// Property sweep: every registry crossover must keep the AUXILIARY genome
// channels valid — assignment values inside their per-position domains
// and key values a blend/selection of the parents' keys. The flexible
// shops depend on this (their genomes carry sequencing + assignment, lot
// streaming carries sequencing + keys). Each sweep also runs at n = 50,
// where JOX and OX take sets span both words of the register
// keep-and-fill loop.
#include <gtest/gtest.h>

#include <numeric>

#include "src/ga/registry.h"

namespace psga::ga {
namespace {

GenomeTraits traits_with_channels(int n, bool assign, bool keys) {
  GenomeTraits t;
  t.seq_kind = SeqKind::kPermutation;
  t.seq_length = n;
  if (assign) {
    for (int i = 0; i < n; ++i) t.assign_domain.push_back(2 + i % 3);
  }
  if (keys) t.key_length = n;
  return t;
}

Genome random_genome(const GenomeTraits& traits, par::Rng& rng) {
  Genome g;
  g.seq.resize(static_cast<std::size_t>(traits.seq_length));
  std::iota(g.seq.begin(), g.seq.end(), 0);
  rng.shuffle(g.seq);
  for (int d : traits.assign_domain) {
    g.assign.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(d))));
  }
  for (int i = 0; i < traits.key_length; ++i) g.keys.push_back(rng.uniform());
  return g;
}

class AuxChannelSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AuxChannelSweep, AssignChannelStaysInDomainAndFromParents) {
  const CrossoverPtr cx = make_crossover(GetParam());
  if (!cx->supports(SeqKind::kPermutation)) GTEST_SKIP();
  par::Rng rng(101);
  for (int n : {12, 50}) {
    const GenomeTraits traits = traits_with_channels(n, true, false);
    for (int trial = 0; trial < 30; ++trial) {
      const Genome a = random_genome(traits, rng);
      const Genome b = random_genome(traits, rng);
      Genome c1;
      Genome c2;
      cx->cross(a, b, traits, c1, c2, rng);
      ASSERT_TRUE(genome_valid(c1, traits)) << GetParam() << " n " << n;
      ASSERT_TRUE(genome_valid(c2, traits)) << GetParam() << " n " << n;
      for (std::size_t i = 0; i < c1.assign.size(); ++i) {
        EXPECT_TRUE(c1.assign[i] == a.assign[i] || c1.assign[i] == b.assign[i]);
        // Complementary: what child1 did not take, child2 holds.
        EXPECT_TRUE(c2.assign[i] == a.assign[i] || c2.assign[i] == b.assign[i]);
      }
    }
  }
}

TEST_P(AuxChannelSweep, KeyChannelStaysInParentRange) {
  const CrossoverPtr cx = make_crossover(GetParam());
  if (!cx->supports(SeqKind::kPermutation)) GTEST_SKIP();
  par::Rng rng(102);
  for (int n : {10, 50}) {
    const GenomeTraits traits = traits_with_channels(n, false, true);
    for (int trial = 0; trial < 30; ++trial) {
      const Genome a = random_genome(traits, rng);
      const Genome b = random_genome(traits, rng);
      Genome c1;
      Genome c2;
      cx->cross(a, b, traits, c1, c2, rng);
      ASSERT_TRUE(genome_valid(c1, traits)) << GetParam() << " n " << n;
      for (std::size_t i = 0; i < c1.keys.size(); ++i) {
        const double lo = std::min(a.keys[i], b.keys[i]) - 1e-12;
        const double hi = std::max(a.keys[i], b.keys[i]) + 1e-12;
        EXPECT_GE(c1.keys[i], lo) << GetParam();
        EXPECT_LE(c1.keys[i], hi) << GetParam();
      }
    }
  }
}

TEST_P(AuxChannelSweep, BothChannelsTogether) {
  const CrossoverPtr cx = make_crossover(GetParam());
  if (!cx->supports(SeqKind::kPermutation)) GTEST_SKIP();
  par::Rng rng(103);
  for (int n : {8, 50}) {
    const GenomeTraits traits = traits_with_channels(n, true, true);
    for (int trial = 0; trial < 20; ++trial) {
      const Genome a = random_genome(traits, rng);
      const Genome b = random_genome(traits, rng);
      Genome c1;
      Genome c2;
      cx->cross(a, b, traits, c1, c2, rng);
      ASSERT_TRUE(genome_valid(c1, traits)) << GetParam() << " n " << n;
      ASSERT_TRUE(genome_valid(c2, traits)) << GetParam() << " n " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCrossovers, AuxChannelSweep,
                         ::testing::Values("one-point", "two-point", "pmx",
                                           "ox", "cycle", "position-based",
                                           "jox", "ppx", "thx"));

TEST(AuxChannels, KeyCrossoversPreserveAssignDomains) {
  // The pure key crossovers must also recombine assign within domains
  // (the rule-sequence encoding uses exactly this combination).
  GenomeTraits traits;
  traits.seq_kind = SeqKind::kNone;
  traits.key_length = 6;
  traits.assign_domain = {4, 4, 4, 4, 4, 4};
  par::Rng rng(104);
  for (const char* name : {"uniform-keys", "arithmetic-keys"}) {
    const CrossoverPtr cx = make_crossover(name);
    for (int trial = 0; trial < 20; ++trial) {
      Genome a;
      Genome b;
      for (int i = 0; i < 6; ++i) {
        a.keys.push_back(rng.uniform());
        b.keys.push_back(rng.uniform());
        a.assign.push_back(rng.range(0, 3));
        b.assign.push_back(rng.range(0, 3));
      }
      Genome c1;
      Genome c2;
      cx->cross(a, b, traits, c1, c2, rng);
      ASSERT_TRUE(genome_valid(c1, traits)) << name;
      ASSERT_TRUE(genome_valid(c2, traits)) << name;
      for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_TRUE(c1.assign[i] == a.assign[i] || c1.assign[i] == b.assign[i]);
      }
    }
  }
}

}  // namespace
}  // namespace psga::ga
