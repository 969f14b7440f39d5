// The register keep-and-fill loop against the scalar oracle, child for
// child. The register loop runs only on a CPU with AVX-512F; elsewhere
// the comparisons skip and the pins expect the scalar path.
#include "src/ga/keep_fill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/ga/problem_spec.h"
#include "src/par/rng.h"

namespace psga::ga {
namespace {

/// The test's own probe, independent of the library's.
bool cpu_has_register_path() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

constexpr int kSentinel = -7;

/// Keep and donor parents over `values` distinct values: a permutation
/// when values == n, else a random multiset of n genes (job repetition).
struct Parents {
  std::vector<int> keep;
  std::vector<int> donor;
};

Parents random_parents(std::size_t n, std::size_t values, par::Rng& rng) {
  Parents p;
  p.keep.resize(n);
  if (values == n) {
    std::iota(p.keep.begin(), p.keep.end(), 0);
  } else {
    for (int& gene : p.keep) gene = static_cast<int>(rng.below(values));
  }
  rng.shuffle(p.keep);
  p.donor = p.keep;
  rng.shuffle(p.donor);
  return p;
}

/// A take set of 1..min(values, 64) values below 64, as the register
/// loop's word.
std::uint64_t random_take(std::size_t values, par::Rng& rng) {
  std::vector<int> pool(std::min(values, kRegisterTakeValues));
  std::iota(pool.begin(), pool.end(), 0);
  rng.shuffle(pool);
  const std::size_t size = 1 + rng.below(pool.size());
  std::uint64_t take = 0;
  for (std::size_t k = 0; k < size; ++k) take |= std::uint64_t{1} << pool[k];
  return take;
}

/// The same take set as the oracle's per-value flags.
std::vector<unsigned char> take_flags(std::uint64_t take, std::size_t values) {
  std::vector<unsigned char> flags(values, 0);
  for (std::size_t v = 0; v < std::min(values, kRegisterTakeValues); ++v) {
    flags[v] = take >> v & 1;
  }
  return flags;
}

/// Sentinel children that arrive empty, shorter or longer than n.
std::vector<int> arriving_child(std::size_t n, std::size_t variant) {
  const std::size_t sizes[] = {0, n / 2, n + 17};
  return std::vector<int>(sizes[variant % 3], kSentinel);
}

TEST(KeepFillRegisters, MatchesTheOracleOnEverySizeTakeSetAndStart) {
  if (!cpu_has_register_path()) GTEST_SKIP() << "no AVX-512F on this CPU";
  par::Rng rng(0xf111);
  // One scratch per loop for every size, visited in shuffled order, so
  // the buffers shrink and grow between calls as a breeding thread's do.
  KeepFillScratch oracle_scratch;
  KeepFillScratch register_scratch;
  std::vector<std::size_t> sizes(130);
  std::iota(sizes.begin(), sizes.end(), 1);
  rng.shuffle(sizes);
  long compared = 0;
  for (std::size_t n : sizes) {
    // A permutation (values ≥ 64 never taken once n > 64) and a job
    // repetition over 1..64 jobs.
    const std::size_t jobs = 1 + rng.below(std::min<std::size_t>(n, 64));
    for (std::size_t values : {n, jobs}) {
      for (std::size_t start = 0; start < n; ++start) {
        const Parents p = random_parents(n, values, rng);
        const std::uint64_t take = random_take(values, rng);
        const std::vector<unsigned char> flags = take_flags(take, values);
        std::vector<int> expect = arriving_child(n, start);
        std::vector<int> got = arriving_child(n, start + 1);
        keep_and_fill(oracle_scratch, p.keep, p.donor, flags, start, expect);
        keep_and_fill_registers(register_scratch, p.keep, p.donor, take,
                                start, got);
        ASSERT_EQ(got, expect) << "n " << n << " values " << values
                               << " start " << start << " take " << take;
        ASSERT_EQ(std::count(got.begin(), got.end(), kSentinel), 0);
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 2 * 130 * 131 / 2);
}

TEST(KeepFillRegisters, TakeSetsOverBothWordsMatchTheOracle) {
  // Values 31, 32 and 63 sit on each side of the word boundary and at the
  // top of the high word.
  if (!cpu_has_register_path()) GTEST_SKIP() << "no AVX-512F on this CPU";
  par::Rng rng(0xb0d);
  KeepFillScratch scratch;
  for (std::uint64_t take :
       {std::uint64_t{1} << 31, std::uint64_t{1} << 32, std::uint64_t{1} << 63,
        ~std::uint64_t{0}, std::uint64_t{0xffffffff},
        ~std::uint64_t{0xffffffff}}) {
    for (std::size_t n : {64u, 65u, 100u}) {
      const Parents p = random_parents(n, n, rng);
      std::vector<int> expect;
      std::vector<int> got;
      keep_and_fill(scratch, p.keep, p.donor, take_flags(take, n), 5, expect);
      keep_and_fill_registers(scratch, p.keep, p.donor, take, 5, got);
      ASSERT_EQ(got, expect) << "n " << n << " take " << take;
    }
  }
}

TEST(KeepFillRegisters, Ft10JoxAndFiftyJobOxTakeTheRegisterPath) {
  // A silent fallback to the scalar loop would keep every child and lose
  // the speed; this pin makes it fail instead. JOX's take set ranges over
  // jobs, OX's over a permutation's values.
  const bool cpu = cpu_has_register_path();
  const ProblemPtr ft10 =
      ProblemSpec::parse("problem=jobshop instance=ft10").build();
  EXPECT_EQ(keep_fill_in_registers(
                static_cast<std::size_t>(ft10->traits().job_count())),
            cpu);
  const ProblemPtr flow =
      ProblemSpec::parse("problem=flowshop instance=gen:jobs=50,machines=10")
          .build();
  EXPECT_EQ(keep_fill_in_registers(
                static_cast<std::size_t>(flow->traits().seq_length)),
            cpu);
  EXPECT_EQ(keep_fill_in_registers(kRegisterTakeValues), cpu);
  EXPECT_FALSE(keep_fill_in_registers(kRegisterTakeValues + 1));
  EXPECT_FALSE(keep_fill_in_registers(
      static_cast<std::size_t>(ft10->traits().seq_length)));
}

}  // namespace
}  // namespace psga::ga
