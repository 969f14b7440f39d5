#include "src/ga/crossover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <thread>

#include "src/ga/problems.h"
#include "src/ga/registry.h"
#include "src/ga/solver.h"
#include "src/sched/classics.h"

namespace psga::ga {
namespace {

GenomeTraits perm_traits(int n) {
  GenomeTraits t;
  t.seq_kind = SeqKind::kPermutation;
  t.seq_length = n;
  return t;
}

GenomeTraits rep_traits(std::vector<int> repeats) {
  GenomeTraits t;
  t.seq_kind = SeqKind::kJobRepetition;
  t.repeats = std::move(repeats);
  t.seq_length = 0;
  for (int r : t.repeats) t.seq_length += r;
  return t;
}

Genome random_genome(const GenomeTraits& traits, par::Rng& rng) {
  Genome g;
  if (traits.seq_kind == SeqKind::kPermutation) {
    g.seq.resize(static_cast<std::size_t>(traits.seq_length));
    std::iota(g.seq.begin(), g.seq.end(), 0);
    rng.shuffle(g.seq);
  } else if (traits.seq_kind == SeqKind::kJobRepetition) {
    for (std::size_t j = 0; j < traits.repeats.size(); ++j) {
      for (int k = 0; k < traits.repeats[j]; ++k) {
        g.seq.push_back(static_cast<int>(j));
      }
    }
    rng.shuffle(g.seq);
  }
  if (traits.key_length > 0) {
    g.keys.resize(static_cast<std::size_t>(traits.key_length));
    for (auto& k : g.keys) k = rng.uniform();
  }
  for (int d : traits.assign_domain) {
    g.assign.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(d))));
  }
  return g;
}

// --- property sweep: every registry crossover preserves validity -----------

struct SweepCase {
  std::string crossover;
  bool repetition;  // false = permutation traits
  int size_seed;
};

class CrossoverValidity
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CrossoverValidity, PermutationChildrenValid) {
  const auto& [name, seed] = GetParam();
  const CrossoverPtr cx = make_crossover(name);
  if (!cx->supports(SeqKind::kPermutation)) GTEST_SKIP();
  const GenomeTraits traits = perm_traits(5 + seed % 20);
  par::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  for (int trial = 0; trial < 25; ++trial) {
    const Genome a = random_genome(traits, rng);
    const Genome b = random_genome(traits, rng);
    Genome c1;
    Genome c2;
    cx->cross(a, b, traits, c1, c2, rng);
    ASSERT_TRUE(genome_valid(c1, traits))
        << name << " child1 invalid (trial " << trial << ")";
    ASSERT_TRUE(genome_valid(c2, traits))
        << name << " child2 invalid (trial " << trial << ")";
  }
}

TEST_P(CrossoverValidity, RepetitionChildrenValid) {
  const auto& [name, seed] = GetParam();
  const CrossoverPtr cx = make_crossover(name);
  if (!cx->supports(SeqKind::kJobRepetition)) GTEST_SKIP();
  std::vector<int> repeats;
  par::Rng setup(static_cast<std::uint64_t>(seed) + 100);
  const int jobs = 3 + seed % 5;
  for (int j = 0; j < jobs; ++j) repeats.push_back(setup.range(1, 5));
  const GenomeTraits traits = rep_traits(repeats);
  par::Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 3);
  for (int trial = 0; trial < 25; ++trial) {
    const Genome a = random_genome(traits, rng);
    const Genome b = random_genome(traits, rng);
    Genome c1;
    Genome c2;
    cx->cross(a, b, traits, c1, c2, rng);
    ASSERT_TRUE(genome_valid(c1, traits)) << name;
    ASSERT_TRUE(genome_valid(c2, traits)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, CrossoverValidity,
    ::testing::Combine(
        ::testing::Values("one-point", "two-point", "pmx", "ox", "cycle",
                          "position-based", "jox", "ppx", "thx"),
        ::testing::Range(0, 6)));

// --- targeted semantics ------------------------------------------------------

TEST(Pmx, WindowComesFromOtherParent) {
  PmxCrossover cx;
  const GenomeTraits traits = perm_traits(8);
  par::Rng rng(42);
  Genome a = random_genome(traits, rng);
  Genome b = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, b, traits, c1, c2, rng);
  // Every position of child1 comes from a or b.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(c1.seq[i] == a.seq[i] || c1.seq[i] == b.seq[i] ||
                std::find(b.seq.begin(), b.seq.end(), c1.seq[i]) != b.seq.end());
  }
}

TEST(Cycle, EveryGeneFromOneOfTheParentsAtSamePosition) {
  CycleCrossover cx;
  const GenomeTraits traits = perm_traits(10);
  par::Rng rng(43);
  const Genome a = random_genome(traits, rng);
  const Genome b = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, b, traits, c1, c2, rng);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(c1.seq[i] == a.seq[i] || c1.seq[i] == b.seq[i]);
    EXPECT_TRUE(c2.seq[i] == a.seq[i] || c2.seq[i] == b.seq[i]);
    // Complementary choice.
    if (c1.seq[i] == a.seq[i]) EXPECT_EQ(c2.seq[i], b.seq[i]);
  }
}

TEST(Cycle, IdenticalParentsYieldIdenticalChildren) {
  CycleCrossover cx;
  const GenomeTraits traits = perm_traits(6);
  par::Rng rng(44);
  const Genome a = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, a, traits, c1, c2, rng);
  EXPECT_EQ(c1.seq, a.seq);
  EXPECT_EQ(c2.seq, a.seq);
}

TEST(Jox, ChosenJobsKeepPositions) {
  // With identical parents JOX must reproduce the parent.
  JoxCrossover cx;
  const GenomeTraits traits = rep_traits({2, 2, 2});
  par::Rng rng(45);
  const Genome a = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, a, traits, c1, c2, rng);
  EXPECT_EQ(c1.seq, a.seq);
  EXPECT_EQ(c2.seq, a.seq);
}

TEST(Ppx, PrecedencePreserved) {
  // PPX output must preserve the relative order of any job's occurrences
  // (trivially true for repetition chromosomes) and, for permutations,
  // every element's precedence must come from one of the parents. Check
  // the repetition multiset here.
  PpxCrossover cx;
  const GenomeTraits traits = rep_traits({3, 3});
  par::Rng rng(46);
  for (int t = 0; t < 20; ++t) {
    const Genome a = random_genome(traits, rng);
    const Genome b = random_genome(traits, rng);
    Genome c1;
    Genome c2;
    cx.cross(a, b, traits, c1, c2, rng);
    ASSERT_TRUE(genome_valid(c1, traits));
    ASSERT_TRUE(genome_valid(c2, traits));
  }
}

TEST(UniformKeys, ChildrenAreGeneWiseParentMix) {
  UniformKeyCrossover cx(0.5);
  GenomeTraits traits;
  traits.seq_kind = SeqKind::kNone;
  traits.key_length = 16;
  par::Rng rng(47);
  const Genome a = random_genome(traits, rng);
  const Genome b = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, b, traits, c1, c2, rng);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(c1.keys[i] == a.keys[i] || c1.keys[i] == b.keys[i]);
    // Complementary children.
    if (c1.keys[i] == a.keys[i]) EXPECT_EQ(c2.keys[i], b.keys[i]);
  }
}

TEST(ArithmeticKeys, ChildrenWithinParentRange) {
  ArithmeticKeyCrossover cx;
  GenomeTraits traits;
  traits.seq_kind = SeqKind::kNone;
  traits.key_length = 8;
  par::Rng rng(48);
  const Genome a = random_genome(traits, rng);
  const Genome b = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, b, traits, c1, c2, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    const double lo = std::min(a.keys[i], b.keys[i]);
    const double hi = std::max(a.keys[i], b.keys[i]);
    EXPECT_GE(c1.keys[i], lo - 1e-12);
    EXPECT_LE(c1.keys[i], hi + 1e-12);
  }
}

TEST(AssignChannel, RecombinedWithinDomains) {
  OxCrossover cx;
  GenomeTraits traits = perm_traits(6);
  traits.assign_domain = {2, 3, 2, 4, 2, 3};
  par::Rng rng(49);
  const Genome a = random_genome(traits, rng);
  const Genome b = random_genome(traits, rng);
  Genome c1;
  Genome c2;
  cx.cross(a, b, traits, c1, c2, rng);
  ASSERT_TRUE(genome_valid(c1, traits));
  ASSERT_TRUE(genome_valid(c2, traits));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(c1.assign[i] == a.assign[i] || c1.assign[i] == b.assign[i]);
  }
}

// --- MSXF / path relinking ---------------------------------------------------

TEST(Msxf, ChildNeverWorseThanStartingParent) {
  auto problem = std::make_shared<JobShopProblem>(sched::ft06().instance);
  MsxfCrossover cx(problem, 12);
  par::Rng rng(50);
  for (int t = 0; t < 10; ++t) {
    const Genome a = problem->random_genome(rng);
    const Genome b = problem->random_genome(rng);
    Genome c1;
    Genome c2;
    cx.cross(a, b, problem->traits(), c1, c2, rng);
    ASSERT_TRUE(genome_valid(c1, problem->traits()));
    ASSERT_TRUE(genome_valid(c2, problem->traits()));
    EXPECT_LE(problem->objective(c1), problem->objective(a) + 1e-9);
    EXPECT_LE(problem->objective(c2), problem->objective(b) + 1e-9);
  }
}

TEST(PathRelink, ChildValidAndNotWorseThanStart) {
  auto problem = std::make_shared<JobShopProblem>(sched::ft06().instance);
  PathRelinkCrossover cx(problem, 6);
  par::Rng rng(51);
  for (int t = 0; t < 10; ++t) {
    const Genome a = problem->random_genome(rng);
    const Genome b = problem->random_genome(rng);
    Genome c1;
    Genome c2;
    cx.cross(a, b, problem->traits(), c1, c2, rng);
    ASSERT_TRUE(genome_valid(c1, problem->traits()));
    EXPECT_LE(problem->objective(c1), problem->objective(a) + 1e-9);
  }
}

// --- golden output -------------------------------------------------------------
//
// The determinism suites compare backends with one another, so a rewrite
// that changed every child the same way would still pass them. These
// constants pin the operators' output absolutely. They were recorded from
// the earlier allocating implementations; an optimization of an operator
// must reproduce them, never re-record them.

/// Job-repetition traits are as even as possible over max(2, n / 10)
/// jobs, so n = 100 is ft10's shape (10 jobs x 10 operations).
GenomeTraits golden_traits(SeqKind kind, int n) {
  if (kind == SeqKind::kPermutation) return perm_traits(n);
  const int jobs = std::max(2, n / 10);
  std::vector<int> repeats(static_cast<std::size_t>(jobs), n / jobs);
  for (int j = 0; j < n % jobs; ++j) ++repeats[static_cast<std::size_t>(j)];
  return rep_traits(repeats);
}

constexpr int kGoldenSizes[] = {100, 2, 7, 3};

/// The sizes where order crossovers draw take sets over both 32-bit words
/// of a 64-value set (50, 33, 64) and just past it (65).
constexpr int kMidSizes[] = {50, 33, 64, 65};

/// Folds both children's genome_hash and the next RNG draw of 40 rounds
/// over `sizes`. The sizes interleave so per-thread scratch shrinks and
/// grows, and the reused children always arrive holding genomes of
/// another length.
std::uint64_t golden_digest(const std::string& name, SeqKind kind,
                            std::span<const int> sizes = kGoldenSizes) {
  const CrossoverPtr cx = make_crossover(name);
  par::Rng rng(0x5eed);
  Genome c1;
  Genome c2;
  std::uint64_t digest = 0;
  for (int round = 0; round < 40; ++round) {
    for (int n : sizes) {
      const GenomeTraits traits = golden_traits(kind, n);
      const Genome a = random_genome(traits, rng);
      const Genome b = random_genome(traits, rng);
      cx->cross(a, b, traits, c1, c2, rng);
      for (std::uint64_t value : {genome_hash(c1), genome_hash(c2), rng()}) {
        std::uint64_t state = digest ^ value;
        digest = par::splitmix64(state);
      }
    }
  }
  return digest;
}

struct GoldenCrossover {
  const char* name;
  SeqKind kind;
  std::uint64_t digest;
};

constexpr GoldenCrossover kGoldenCrossovers[] = {
    {"one-point", SeqKind::kPermutation, 0xddc19531107480aaULL},
    {"two-point", SeqKind::kPermutation, 0xd1b44aa6d9587438ULL},
    {"pmx", SeqKind::kPermutation, 0x31b680f6e506a6fdULL},
    {"ox", SeqKind::kPermutation, 0x850783723eb0d168ULL},
    {"cycle", SeqKind::kPermutation, 0xcf830f59972841e3ULL},
    {"jox", SeqKind::kPermutation, 0x92b5acc3565d9966ULL},
    {"position-based", SeqKind::kPermutation, 0x81300f62f3b40248ULL},
    {"ppx", SeqKind::kPermutation, 0x4a010d65eff31d03ULL},
    {"thx", SeqKind::kPermutation, 0x6a5d9d9374d99097ULL},
    {"one-point", SeqKind::kJobRepetition, 0x30dd3c80054056eeULL},
    {"two-point", SeqKind::kJobRepetition, 0x2d52aad98d09f999ULL},
    {"jox", SeqKind::kJobRepetition, 0xf4a4a4b43d6619bfULL},
    {"ppx", SeqKind::kJobRepetition, 0xf6750eab373b45b4ULL},
    {"thx", SeqKind::kJobRepetition, 0xe88f8772726257abULL},
};

/// Recorded from the scalar keep-and-fill; like kGoldenCrossovers, never
/// re-recorded.
constexpr GoldenCrossover kMidSizeGoldenCrossovers[] = {
    {"one-point", SeqKind::kPermutation, 0x4663a601696bfbfeULL},
    {"two-point", SeqKind::kPermutation, 0xf9a5ab57765b9019ULL},
    {"pmx", SeqKind::kPermutation, 0xdf3e07ef04e43050ULL},
    {"ox", SeqKind::kPermutation, 0x922cb7fc16f1b644ULL},
    {"cycle", SeqKind::kPermutation, 0x1040482c9a17e1a4ULL},
    {"jox", SeqKind::kPermutation, 0xb6dd4cb04a4d405eULL},
    {"position-based", SeqKind::kPermutation, 0x58bdf9e20b184b40ULL},
    {"ppx", SeqKind::kPermutation, 0xb9a426e096baaa54ULL},
    {"thx", SeqKind::kPermutation, 0xcc372538fe99329fULL},
    {"one-point", SeqKind::kJobRepetition, 0x4e59aed87fc3b948ULL},
    {"two-point", SeqKind::kJobRepetition, 0xee12de72f6c4e13cULL},
    {"jox", SeqKind::kJobRepetition, 0x7912ce54b1175c65ULL},
    {"ppx", SeqKind::kJobRepetition, 0x5343c00581ef6986ULL},
    {"thx", SeqKind::kJobRepetition, 0xc89f7b3fb39887f4ULL},
};

TEST(CrossoverGolden, TableCoversEverySequencingCrossover) {
  for (SeqKind kind : {SeqKind::kPermutation, SeqKind::kJobRepetition}) {
    const auto names = crossover_names(kind);
    const std::set<std::string> expected(names.begin(), names.end());
    std::set<std::string> pinned;
    for (const auto& golden : kGoldenCrossovers) {
      if (golden.kind == kind) pinned.insert(golden.name);
    }
    EXPECT_EQ(pinned, expected);
    std::set<std::string> mid_pinned;
    for (const auto& golden : kMidSizeGoldenCrossovers) {
      if (golden.kind == kind) mid_pinned.insert(golden.name);
    }
    EXPECT_EQ(mid_pinned, expected);
  }
}

TEST(CrossoverGolden, ChildrenAndDrawsPinned) {
  for (const auto& golden : kGoldenCrossovers) {
    EXPECT_EQ(golden_digest(golden.name, golden.kind), golden.digest)
        << golden.name << " on "
        << (golden.kind == SeqKind::kPermutation ? "permutation"
                                                 : "job repetition");
  }
}

TEST(CrossoverGolden, MidSizeChildrenAndDrawsPinned) {
  for (const auto& golden : kMidSizeGoldenCrossovers) {
    EXPECT_EQ(golden_digest(golden.name, golden.kind, kMidSizes),
              golden.digest)
        << golden.name << " on "
        << (golden.kind == SeqKind::kPermutation ? "permutation"
                                                 : "job repetition");
  }
}

TEST(CrossoverGolden, ConcurrentThreadsReproduceDigests) {
  // Operators are shared const across island and cell threads; each
  // thread must get exactly the single-thread children.
  std::vector<std::uint64_t> expected;
  for (const auto& golden : kGoldenCrossovers) {
    expected.push_back(golden_digest(golden.name, golden.kind));
  }
  std::vector<std::vector<std::uint64_t>> seen(4);
  std::vector<std::thread> threads;
  for (auto& digests : seen) {
    threads.emplace_back([&digests] {
      for (const auto& golden : kGoldenCrossovers) {
        digests.push_back(golden_digest(golden.name, golden.kind));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& digests : seen) EXPECT_EQ(digests, expected);
}

TEST(CrossoverGolden, EngineRunsPinned) {
  struct PinnedRun {
    const char* spec;
    int generations;
    double best_objective;
    std::uint64_t best_hash;
    long long evaluations;
  };
  const PinnedRun runs[] = {
      {"problem=jobshop instance=ft10 engine=simple pop=100 seed=1", 50,
       1087, 0x5a1ba357b4371420ULL, 5100},
      {"problem=flowshop instance=gen:jobs=50,machines=10 engine=island "
       "islands=4 pop=32 eval_cache=lru:4096 seed=1",
       30, 3358, 0xd5645c63009e83d2ULL, 3968},
  };
  for (const auto& run : runs) {
    const RunResult result = Solver::build(RunSpec::parse(run.spec))
                                 .run(StopCondition::generations(run.generations));
    EXPECT_EQ(result.best_objective, run.best_objective) << run.spec;
    EXPECT_EQ(genome_hash(result.best), run.best_hash) << run.spec;
    EXPECT_EQ(result.evaluations, run.evaluations) << run.spec;
  }
}

// --- the cross_seq contract ----------------------------------------------
//
// cross() copies and recombines only `assign` and `keys`; every cross_seq
// writes the whole sequencing chromosome, so children may arrive holding
// any genome at all.

constexpr int kSentinel = -7;

/// A pure objective over any traits, for the operators that search (MSXF,
/// path relinking): position-weighted gene sum.
class PositionWeightProblem final : public Problem {
 public:
  explicit PositionWeightProblem(GenomeTraits traits)
      : traits_(std::move(traits)) {}
  const GenomeTraits& traits() const override { return traits_; }
  Genome random_genome(par::Rng& rng) const override {
    return ga::random_genome(traits_, rng);
  }
  double objective(const Genome& genome) const override {
    double sum = 0;
    for (std::size_t i = 0; i < genome.seq.size(); ++i) {
      sum += static_cast<double>(i + 1) * genome.seq[i];
    }
    return sum;
  }

 private:
  GenomeTraits traits_;
};

/// A genome of `length` sentinel genes in every channel.
Genome sentinel_genome(std::size_t length) {
  Genome g;
  g.seq.assign(length, kSentinel);
  g.assign.assign(length, kSentinel);
  g.keys.assign(length, kSentinel);
  return g;
}

/// `kind` traits over n genes, with an assignment and a keys channel.
GenomeTraits contract_traits(SeqKind kind, int n) {
  GenomeTraits traits;
  if (kind == SeqKind::kNone) {
    traits.seq_kind = SeqKind::kNone;
  } else {
    traits = golden_traits(kind, n);
  }
  for (int i = 0; i < n; ++i) traits.assign_domain.push_back(2 + i % 3);
  traits.key_length = n;
  return traits;
}

/// Every registry crossover for `kind`, plus MSXF and path relinking on
/// the sequencing kinds.
std::vector<CrossoverPtr> contract_crossovers(SeqKind kind,
                                              const GenomeTraits& traits) {
  std::vector<CrossoverPtr> crossovers;
  for (const std::string& name : crossover_names(kind)) {
    crossovers.push_back(make_crossover(name));
  }
  if (kind != SeqKind::kNone) {
    const auto problem = std::make_shared<PositionWeightProblem>(traits);
    crossovers.push_back(std::make_shared<MsxfCrossover>(problem, 4));
    crossovers.push_back(std::make_shared<PathRelinkCrossover>(problem, 3));
  }
  return crossovers;
}

TEST(CrossoverContract, ChildrenArrivingWithAnyGenomeKeepNoSentinel) {
  par::Rng rng(0xc0de);
  for (SeqKind kind :
       {SeqKind::kPermutation, SeqKind::kJobRepetition, SeqKind::kNone}) {
    for (int n : {0, 1, 2, 3, 7, 50, 100}) {
      const GenomeTraits traits = contract_traits(kind, n);
      for (const CrossoverPtr& cx : contract_crossovers(kind, traits)) {
        SCOPED_TRACE(cx->name() + " n " + std::to_string(n));
        for (int trial = 0; trial < 4; ++trial) {
          const Genome a = random_genome(traits, rng);
          const Genome b = random_genome(traits, rng);
          const auto size = static_cast<std::size_t>(n);
          Genome c1 = sentinel_genome(size + 5);
          Genome c2 = sentinel_genome(size >= 2 ? size / 2 : size + 1);
          cx->cross(a, b, traits, c1, c2, rng);
          for (const Genome* child : {&c1, &c2}) {
            const auto& [seq, assign, keys] = *child;
            ASSERT_EQ(seq.size(), a.seq.size());
            ASSERT_EQ(assign.size(), a.assign.size());
            ASSERT_EQ(keys.size(), a.keys.size());
            EXPECT_EQ(std::count(seq.begin(), seq.end(), kSentinel), 0);
            EXPECT_EQ(std::count(assign.begin(), assign.end(), kSentinel), 0);
            EXPECT_EQ(std::count(keys.begin(), keys.end(), double{kSentinel}),
                      0);
          }
          if (kind != SeqKind::kNone) {
            EXPECT_TRUE(genome_valid(c1, traits));
            EXPECT_TRUE(genome_valid(c2, traits));
          }
          // Early returns (n < 2; THX below 3) keep the parents' sequences.
          if (n < 2 || (cx->name() == "thx" && n < 3) ||
              kind == SeqKind::kNone) {
            EXPECT_EQ(c1.seq, a.seq);
            EXPECT_EQ(c2.seq, b.seq);
          }
        }
      }
    }
  }
}

TEST(CrossoverContract, DegenerateTwoPointWindowKeepsTheParentSequences) {
  // With no auxiliary channel, two-point's first two draws are its window
  // ends; when they coincide it returns early.
  const CrossoverPtr cx = make_crossover("two-point");
  par::Rng rng(0xd0d);
  int degenerate = 0;
  for (SeqKind kind : {SeqKind::kPermutation, SeqKind::kJobRepetition}) {
    for (int n : {2, 3, 7}) {
      const GenomeTraits traits = golden_traits(kind, n);
      for (int trial = 0; trial < 20; ++trial) {
        const Genome a = random_genome(traits, rng);
        const Genome b = random_genome(traits, rng);
        par::Rng probe = rng;
        const std::uint64_t lo = probe.below(static_cast<std::uint64_t>(n));
        const std::uint64_t hi = probe.below(static_cast<std::uint64_t>(n));
        Genome c1 = sentinel_genome(static_cast<std::size_t>(n) + 3);
        Genome c2;
        cx->cross(a, b, traits, c1, c2, rng);
        if (lo != hi) continue;
        ++degenerate;
        EXPECT_EQ(c1, a);
        EXPECT_EQ(c2, b);
      }
    }
  }
  EXPECT_GT(degenerate, 0);
}

}  // namespace
}  // namespace psga::ga
