// Keep-and-fill: the order-preserving core of JOX, OX and position-based
// crossover (src/ga/crossover.cpp). Internal to the operators; declared
// here so the tests can run the register loop against the scalar oracle
// child for child.
//
// A take set is the set of values a child takes from its donor parent.
// The child keeps every gene of its keep parent whose value is not taken;
// the other positions (its holes) receive the donor's taken genes in the
// donor's order. Both parents are visited from position `start`,
// wrapping around. Both loops write the whole child, whatever length it
// arrives with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace psga::ga {

/// Buffers of both loops. Operators are `const` and shared by island and
/// cell threads, so the operators keep one per thread; one thread serves
/// genomes of every length, so each call sizes them.
struct KeepFillScratch {
  std::vector<unsigned char> take;  ///< per value: 1 = supplied by the donor
  std::vector<std::size_t> holes;   ///< positions to refill, in visit order
  std::vector<int> fill;            ///< donor-supplied values, in visit order
};

/// Take sets of values below this fit the register loop's 64-bit word.
inline constexpr std::size_t kRegisterTakeValues = 64;

/// True when take sets over the values [0, values) go through the
/// register loop: the CPU reports AVX-512F (every such CPU also has the
/// POPCNT the loop counts with), and values <= 64.
bool keep_fill_in_registers(std::size_t values);

/// The scalar loop and the oracle: value v is taken iff take[v]. Serves
/// take sets of any size on any CPU.
void keep_and_fill(KeepFillScratch& s, std::span<const int> keep,
                   std::span<const int> donor,
                   std::span<const unsigned char> take, std::size_t start,
                   std::vector<int>& child);

/// The AVX-512 loop: value v is taken iff bit v of `take` is set, so
/// values of 64 and above (and negative ones) are never taken. Call it
/// only when keep_fill_in_registers() holds for some `values`.
void keep_and_fill_registers(KeepFillScratch& s, std::span<const int> keep,
                             std::span<const int> donor, std::uint64_t take,
                             std::size_t start, std::vector<int>& child);

}  // namespace psga::ga
