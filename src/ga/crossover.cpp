#include "src/ga/crossover.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "src/ga/keep_fill.h"
#include "src/par/cpu.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace psga::ga {

namespace {

/// Fills `child` positions listed in `holes` with the multiset
/// `remaining` taken in `donor` order. `remaining` holds per-value counts.
void fill_in_donor_order(std::span<const int> donor, std::vector<int>& remaining,
                         const std::vector<std::size_t>& holes,
                         std::vector<int>& child) {
  std::size_t hole = 0;
  for (int v : donor) {
    if (hole >= holes.size()) break;
    auto& left = remaining[static_cast<std::size_t>(v)];
    if (left > 0) {
      --left;
      child[holes[hole++]] = v;
    }
  }
}

int max_value(const GenomeTraits& traits) {
  return traits.seq_kind == SeqKind::kJobRepetition
             ? traits.job_count()
             : traits.seq_length;
}

/// Per-value counts of the full chromosome multiset.
std::vector<int> full_multiset(const GenomeTraits& traits) {
  if (traits.seq_kind == SeqKind::kJobRepetition) return traits.repeats;
  return std::vector<int>(static_cast<std::size_t>(traits.seq_length), 1);
}

/// One-point "order" crossover on a multiset chromosome: child = parent's
/// prefix [0, cut) + the remaining multiset in donor order.
void one_point_multiset(const std::vector<int>& keep,
                        const std::vector<int>& donor,
                        const GenomeTraits& traits, std::size_t cut,
                        std::vector<int>& child) {
  child.assign(keep.begin(), keep.end());
  std::vector<int> remaining = full_multiset(traits);
  for (std::size_t i = 0; i < cut; ++i) {
    --remaining[static_cast<std::size_t>(keep[i])];
  }
  std::vector<std::size_t> holes;
  holes.reserve(keep.size() - cut);
  for (std::size_t i = cut; i < keep.size(); ++i) holes.push_back(i);
  fill_in_donor_order(donor, remaining, holes, child);
}

thread_local KeepFillScratch keep_fill_scratch;

constexpr std::size_t kKeepFillLanes = 16;  ///< int32 lanes of a register

/// A child that leaves the sequencing chromosome alone keeps its
/// parent's: cross_seq writes the whole chromosome on every path.
void keep_parent_sequences(const Genome& a, const Genome& b, Genome& child1,
                           Genome& child2) {
  child1.seq = a.seq;
  child2.seq = b.seq;
}

#if defined(__x86_64__) && defined(__GNUC__)

// GCC 12's AVX-512 intrinsics hand an uninitialized _mm512_undefined_*()
// pass-through to their masked builtins, and -Wmaybe-uninitialized then
// reports it at every inlined call. Every lane those builtins return is
// written, so the reports are false; later GCCs do not emit them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/// Lanes of `genes` whose value is in the take set, held as its low and
/// high 32-bit words broadcast to every lane. A variable shift by 32 or
/// more yields 0, so each value tests one word, and values of 64 and above
/// (or negative) test neither.
[[gnu::target("avx512f"), gnu::always_inline]] inline __mmask16 taken_lanes(
    __m512i genes, __m512i low, __m512i high) {
  const __m512i bits = _mm512_or_si512(
      _mm512_srlv_epi32(low, genes),
      _mm512_srlv_epi32(high, _mm512_sub_epi32(genes, _mm512_set1_epi32(32))));
  return _mm512_test_epi32_mask(bits, _mm512_set1_epi32(1));
}

/// Pass 1 on one register of donor genes: stores its taken genes, packed,
/// at `fill` and returns how many there are.
[[gnu::target("avx512f,popcnt"), gnu::always_inline]] inline std::size_t
pack_taken(__m512i genes, __mmask16 lanes, __m512i low, __m512i high,
           int* fill) {
  const __mmask16 taken = taken_lanes(genes, low, high) & lanes;
  _mm512_storeu_si512(fill, _mm512_maskz_compress_epi32(taken, genes));
  return static_cast<std::size_t>(_mm_popcnt_u32(taken));
}

/// Pass 2 on one register of kept genes: its holes take the fill values
/// from `used` on, and `used` moves past them.
[[gnu::target("avx512f,popcnt"), gnu::always_inline]] inline __m512i refill(
    __m512i genes, __mmask16 lanes, __m512i low, __m512i high,
    const int* fill, std::size_t& used) {
  const __mmask16 holes = taken_lanes(genes, low, high) & lanes;
  const __m512i child =
      _mm512_mask_expand_epi32(genes, holes, _mm512_loadu_si512(fill + used));
  used += static_cast<std::size_t>(_mm_popcnt_u32(holes));
  return child;
}

/// keep_and_fill_registers' loop over raw rows of n genes. Each pass walks
/// both segments of the visiting order in whole registers, then one
/// masked tail. `fill` holds n + 16 ints: pass 1 stores 16 lanes at its
/// cursor and pass 2 loads 16.
[[gnu::target("avx512f,popcnt")]] void keep_and_fill_avx512(
    const int* keep, const int* donor, std::uint64_t take, std::size_t n,
    std::size_t start, int* fill, int* child) {
  const __m512i low = _mm512_set1_epi32(static_cast<int>(take & 0xffffffffu));
  const __m512i high = _mm512_set1_epi32(static_cast<int>(take >> 32));
  constexpr __mmask16 kAll = 0xffff;
  const std::size_t segments[2][2] = {{start, n}, {0, start}};
  std::size_t filled = 0;
  for (const auto& [begin, end] : segments) {
    std::size_t i = begin;
    for (; i + kKeepFillLanes <= end; i += kKeepFillLanes) {
      filled += pack_taken(_mm512_loadu_si512(donor + i), kAll, low, high,
                           fill + filled);
    }
    if (i < end) {
      const auto lanes = static_cast<__mmask16>((1u << (end - i)) - 1);
      filled += pack_taken(_mm512_maskz_loadu_epi32(lanes, donor + i), lanes,
                           low, high, fill + filled);
    }
  }
  std::size_t used = 0;
  for (const auto& [begin, end] : segments) {
    std::size_t i = begin;
    for (; i + kKeepFillLanes <= end; i += kKeepFillLanes) {
      _mm512_storeu_si512(child + i, refill(_mm512_loadu_si512(keep + i),
                                            kAll, low, high, fill, used));
    }
    if (i < end) {
      const auto lanes = static_cast<__mmask16>((1u << (end - i)) - 1);
      _mm512_mask_storeu_epi32(
          child + i, lanes,
          refill(_mm512_maskz_loadu_epi32(lanes, keep + i), lanes, low, high,
                 fill, used));
    }
  }
}

#pragma GCC diagnostic pop

#endif

}  // namespace

bool keep_fill_in_registers(std::size_t values) {
  return par::cpu_features().avx512f && values <= kRegisterTakeValues;
}

/// No branch per gene: each visit writes its candidates unconditionally
/// and advances the cursors by the flags.
void keep_and_fill(KeepFillScratch& s, std::span<const int> keep,
                   std::span<const int> donor,
                   std::span<const unsigned char> take, std::size_t start,
                   std::vector<int>& child) {
  const std::size_t n = keep.size();
  child.assign(keep.begin(), keep.end());
  s.holes.resize(n);
  s.fill.resize(n);
  std::size_t holes = 0;
  std::size_t filled = 0;
  const auto visit = [&](std::size_t i) {
    s.holes[holes] = i;
    holes += take[static_cast<std::size_t>(keep[i])];
    s.fill[filled] = donor[i];
    filled += take[static_cast<std::size_t>(donor[i])];
  };
  for (std::size_t i = start; i < n; ++i) visit(i);
  for (std::size_t i = 0; i < start; ++i) visit(i);
  for (std::size_t k = 0; k < holes; ++k) child[s.holes[k]] = s.fill[k];
}

void keep_and_fill_registers(KeepFillScratch& s, std::span<const int> keep,
                             std::span<const int> donor, std::uint64_t take,
                             std::size_t start, std::vector<int>& child) {
  const std::size_t n = keep.size();
  child.resize(n);
  if (s.fill.size() < n + kKeepFillLanes) s.fill.resize(n + kKeepFillLanes);
#if defined(__x86_64__) && defined(__GNUC__)
  keep_and_fill_avx512(keep.data(), donor.data(), take, n, start,
                       s.fill.data(), child.data());
#else
  (void)donor, (void)take, (void)start;
  throw std::logic_error("keep_and_fill_registers: built without AVX-512");
#endif
}

void Crossover::cross(const Genome& a, const Genome& b,
                      const GenomeTraits& traits, Genome& child1,
                      Genome& child2, par::Rng& rng) const {
  // Auxiliary channels first (sequencing operators may overwrite them);
  // cross_seq writes the whole sequencing chromosome.
  child1.assign = a.assign;
  child2.assign = b.assign;
  child1.keys = a.keys;
  child2.keys = b.keys;
  if (!traits.assign_domain.empty()) {
    for (std::size_t i = 0; i < child1.assign.size(); ++i) {
      if (rng.chance(0.5)) std::swap(child1.assign[i], child2.assign[i]);
    }
  }
  if (traits.key_length > 0 && supports(traits.seq_kind) &&
      traits.seq_kind != SeqKind::kNone) {
    // Whole-arithmetic blend keeps keys in range for mixed-channel genomes
    // (e.g. lot streaming: permutation + split keys).
    const double alpha = rng.uniform();
    for (std::size_t i = 0; i < child1.keys.size(); ++i) {
      const double ka = a.keys[i];
      const double kb = b.keys[i];
      child1.keys[i] = alpha * ka + (1.0 - alpha) * kb;
      child2.keys[i] = alpha * kb + (1.0 - alpha) * ka;
    }
  }
  cross_seq(a, b, traits, child1, child2, rng);
}

// --- OnePointOrderCrossover ---------------------------------------------------

bool OnePointOrderCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void OnePointOrderCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& traits,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  const std::size_t cut = 1 + rng.below(n - 1);
  one_point_multiset(a.seq, b.seq, traits, cut, child1.seq);
  one_point_multiset(b.seq, a.seq, traits, cut, child2.seq);
}

// --- TwoPointOrderCrossover ---------------------------------------------------

bool TwoPointOrderCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void TwoPointOrderCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& traits,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  std::size_t lo = rng.below(n);
  std::size_t hi = rng.below(n);
  if (lo > hi) std::swap(lo, hi);
  if (lo == hi) return keep_parent_sequences(a, b, child1, child2);

  auto build = [&](const std::vector<int>& keep, const std::vector<int>& donor,
                   std::vector<int>& child) {
    child.assign(keep.begin(), keep.end());
    std::vector<int> remaining = full_multiset(traits);
    for (std::size_t i = 0; i < n; ++i) {
      if (i < lo || i >= hi) --remaining[static_cast<std::size_t>(keep[i])];
    }
    std::vector<std::size_t> holes;
    for (std::size_t i = lo; i < hi; ++i) holes.push_back(i);
    fill_in_donor_order(donor, remaining, holes, child);
  };
  build(a.seq, b.seq, child1.seq);
  build(b.seq, a.seq, child2.seq);
}

// --- PmxCrossover ---------------------------------------------------------

void PmxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  std::size_t lo = rng.below(n);
  std::size_t hi = rng.below(n);
  if (lo > hi) std::swap(lo, hi);
  ++hi;  // window [lo, hi)

  auto build = [&](const std::vector<int>& base, const std::vector<int>& window_src,
                   std::vector<int>& child) {
    child.assign(base.begin(), base.end());
    std::vector<int> mapped_to(static_cast<std::size_t>(traits.seq_length), -1);
    std::vector<bool> in_window(static_cast<std::size_t>(traits.seq_length), false);
    for (std::size_t i = lo; i < hi; ++i) {
      child[i] = window_src[i];
      in_window[static_cast<std::size_t>(window_src[i])] = true;
      mapped_to[static_cast<std::size_t>(window_src[i])] = base[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= lo && i < hi) continue;
      int v = base[i];
      while (in_window[static_cast<std::size_t>(v)]) {
        v = mapped_to[static_cast<std::size_t>(v)];
      }
      child[i] = v;
    }
  };
  build(a.seq, b.seq, child1.seq);
  build(b.seq, a.seq, child2.seq);
}

// --- OxCrossover ---------------------------------------------------------

void OxCrossover::cross_seq(const Genome& a, const Genome& b,
                            const GenomeTraits& /*traits*/, Genome& child1,
                            Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  std::size_t lo = rng.below(n);
  std::size_t hi = rng.below(n);
  if (lo > hi) std::swap(lo, hi);
  ++hi;  // window [lo, hi)

  // Each child keeps its parent's window and takes every other value in
  // donor order, read and written from just after the window.
  KeepFillScratch& s = keep_fill_scratch;
  if (keep_fill_in_registers(n)) {
    std::uint64_t window_a = 0;
    std::uint64_t window_b = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      window_a |= std::uint64_t{1} << a.seq[i];
      window_b |= std::uint64_t{1} << b.seq[i];
    }
    keep_and_fill_registers(s, a.seq, b.seq, ~window_a, hi % n, child1.seq);
    keep_and_fill_registers(s, b.seq, a.seq, ~window_b, hi % n, child2.seq);
    return;
  }
  // take[0, n) flags child1's donor values, take[n, 2n) child2's.
  s.take.assign(2 * n, 1);
  for (std::size_t i = lo; i < hi; ++i) {
    s.take[static_cast<std::size_t>(a.seq[i])] = 0;
    s.take[n + static_cast<std::size_t>(b.seq[i])] = 0;
  }
  const std::span<const unsigned char> take(s.take);
  keep_and_fill(s, a.seq, b.seq, take.first(n), hi % n, child1.seq);
  keep_and_fill(s, b.seq, a.seq, take.last(n), hi % n, child2.seq);
}

// --- CycleCrossover ---------------------------------------------------------

void CycleCrossover::cross_seq(const Genome& a, const Genome& b,
                               const GenomeTraits& /*traits*/, Genome& child1,
                               Genome& child2, par::Rng& /*rng*/) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  std::vector<int> pos_in_a(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_in_a[static_cast<std::size_t>(a.seq[i])] = static_cast<int>(i);
  }
  std::vector<int> cycle_of(n, -1);
  int cycles = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (cycle_of[start] >= 0) continue;
    std::size_t i = start;
    while (cycle_of[i] < 0) {
      cycle_of[i] = cycles;
      i = static_cast<std::size_t>(pos_in_a[static_cast<std::size_t>(b.seq[i])]);
    }
    ++cycles;
  }
  child1.seq.resize(n);
  child2.seq.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool even = (cycle_of[i] % 2) == 0;
    child1.seq[i] = even ? a.seq[i] : b.seq[i];
    child2.seq[i] = even ? b.seq[i] : a.seq[i];
  }
}

// --- PositionBasedCrossover -------------------------------------------------

void PositionBasedCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& /*traits*/,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  // One coin per position, shared by both children: a kept position keeps
  // its parent's value, every other value comes in donor order. take[0, n)
  // flags child1's donor values, take[n, 2n) child2's.
  KeepFillScratch& s = keep_fill_scratch;
  s.take.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char hole = !rng.chance(0.5);
    s.take[static_cast<std::size_t>(a.seq[i])] = hole;
    s.take[n + static_cast<std::size_t>(b.seq[i])] = hole;
  }
  const std::span<const unsigned char> take(s.take);
  keep_and_fill(s, a.seq, b.seq, take.first(n), 0, child1.seq);
  keep_and_fill(s, b.seq, a.seq, take.last(n), 0, child2.seq);
}

// --- JoxCrossover ---------------------------------------------------------

bool JoxCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void JoxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  // One coin per job: a chosen job keeps its positions in both children,
  // the other jobs' operations come in donor order.
  KeepFillScratch& s = keep_fill_scratch;
  const auto values = static_cast<std::size_t>(max_value(traits));
  if (keep_fill_in_registers(values)) {
    std::uint64_t take = 0;
    for (std::size_t v = 0; v < values; ++v) {
      take |= std::uint64_t{!rng.chance(0.5)} << v;
    }
    keep_and_fill_registers(s, a.seq, b.seq, take, 0, child1.seq);
    keep_and_fill_registers(s, b.seq, a.seq, take, 0, child2.seq);
    return;
  }
  s.take.resize(values);
  for (auto& flag : s.take) flag = !rng.chance(0.5);
  keep_and_fill(s, a.seq, b.seq, s.take, 0, child1.seq);
  keep_and_fill(s, b.seq, a.seq, s.take, 0, child2.seq);
}

// --- PpxCrossover ---------------------------------------------------------

bool PpxCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void PpxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 2) return keep_parent_sequences(a, b, child1, child2);
  const int values = max_value(traits);
  std::vector<bool> mask(n);
  for (auto&& bit : mask) bit = rng.chance(0.5);

  // occ[i] = 1-based occurrence index of parent[i]'s value within the
  // parent, so "already emitted" can be checked in O(1) while cursors only
  // move forward.
  auto occurrence_index = [&](const std::vector<int>& parent) {
    std::vector<int> occ(n);
    std::vector<int> count(static_cast<std::size_t>(values), 0);
    for (std::size_t i = 0; i < n; ++i) {
      occ[i] = ++count[static_cast<std::size_t>(parent[i])];
    }
    return occ;
  };
  const std::vector<int> occ_a = occurrence_index(a.seq);
  const std::vector<int> occ_b = occurrence_index(b.seq);

  auto build = [&](bool flip, std::vector<int>& child) {
    child.clear();
    child.reserve(n);
    std::vector<int> consumed(static_cast<std::size_t>(values), 0);
    std::size_t pa = 0;
    std::size_t pb = 0;
    auto take_next = [&](const std::vector<int>& parent,
                         const std::vector<int>& occ, std::size_t& cursor) {
      while (cursor < n &&
             occ[cursor] <= consumed[static_cast<std::size_t>(parent[cursor])]) {
        ++cursor;
      }
      return cursor < n ? parent[cursor] : -1;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const bool from_first = flip ? !mask[i] : mask[i];
      int v = from_first ? take_next(a.seq, occ_a, pa)
                         : take_next(b.seq, occ_b, pb);
      if (v < 0) {
        v = from_first ? take_next(b.seq, occ_b, pb)
                       : take_next(a.seq, occ_a, pa);
      }
      child.push_back(v);
      ++consumed[static_cast<std::size_t>(v)];
    }
  };
  build(/*flip=*/false, child1.seq);
  build(/*flip=*/true, child2.seq);
}

// --- ThxCrossover ---------------------------------------------------------

bool ThxCrossover::supports(SeqKind kind) const {
  return kind == SeqKind::kPermutation || kind == SeqKind::kJobRepetition;
}

void ThxCrossover::cross_seq(const Genome& a, const Genome& b,
                             const GenomeTraits& traits, Genome& child1,
                             Genome& child2, par::Rng& rng) const {
  const std::size_t n = a.seq.size();
  if (n < 3) return keep_parent_sequences(a, b, child1, child2);
  // "Time horizon": a cut in the middle third of the chromosome — the
  // prefix approximates the early part of the schedule.
  const std::size_t third = n / 3;
  const std::size_t cut = third + rng.below(std::max<std::size_t>(third, 1));
  one_point_multiset(a.seq, b.seq, traits, cut, child1.seq);
  one_point_multiset(b.seq, a.seq, traits, cut, child2.seq);
}

// --- UniformKeyCrossover -------------------------------------------------------

void UniformKeyCrossover::cross_seq(const Genome& a, const Genome& b,
                                    const GenomeTraits& /*traits*/,
                                    Genome& child1, Genome& child2,
                                    par::Rng& rng) const {
  keep_parent_sequences(a, b, child1, child2);
  for (std::size_t i = 0; i < child1.keys.size(); ++i) {
    const bool from_a = rng.chance(bias_);
    child1.keys[i] = from_a ? a.keys[i] : b.keys[i];
    child2.keys[i] = from_a ? b.keys[i] : a.keys[i];
  }
}

// --- ArithmeticKeyCrossover -------------------------------------------------

void ArithmeticKeyCrossover::cross_seq(const Genome& a, const Genome& b,
                                       const GenomeTraits& /*traits*/,
                                       Genome& child1, Genome& child2,
                                       par::Rng& rng) const {
  keep_parent_sequences(a, b, child1, child2);
  const double alpha = rng.uniform();
  for (std::size_t i = 0; i < child1.keys.size(); ++i) {
    child1.keys[i] = alpha * a.keys[i] + (1.0 - alpha) * b.keys[i];
    child2.keys[i] = alpha * b.keys[i] + (1.0 - alpha) * a.keys[i];
  }
}

// --- MsxfCrossover ---------------------------------------------------------

namespace {

/// One guided walk of the sequencing chromosome from `from` toward `to`
/// by distance-reducing swaps, keeping the best objective seen. `out`
/// arrives with the auxiliary channels Crossover::cross recombined; the
/// walk starts from them under `from`'s sequence and changes only `seq`.
/// Shared by MSXF and path relinking.
void guided_walk(const Problem& problem, const Genome& from, const Genome& to,
                 int max_steps, int eval_stride, Genome& out, par::Rng& rng) {
  out.seq = from.seq;
  Genome current = out;
  double best_obj = problem.objective(out);
  int step = 0;
  const std::size_t n = current.seq.size();
  while (step < max_steps) {
    // Differing positions.
    std::vector<std::size_t> diff;
    for (std::size_t i = 0; i < n; ++i) {
      if (current.seq[i] != to.seq[i]) diff.push_back(i);
    }
    if (diff.empty()) break;
    const std::size_t i = diff[rng.below(diff.size())];
    // Swap in the value to.seq[i] from a later differing position that
    // holds it (guaranteed to exist: multisets are equal).
    std::size_t j = i;
    for (std::size_t cand : diff) {
      if (cand != i && current.seq[cand] == to.seq[i]) {
        j = cand;
        break;
      }
    }
    if (j == i) break;  // defensive: should not happen for equal multisets
    std::swap(current.seq[i], current.seq[j]);
    ++step;
    if (step % eval_stride == 0 || step == max_steps) {
      const double obj = problem.objective(current);
      if (obj < best_obj) {
        best_obj = obj;
        out.seq = current.seq;
      }
    }
  }
}

}  // namespace

void MsxfCrossover::cross_seq(const Genome& a, const Genome& b,
                              const GenomeTraits& /*traits*/, Genome& child1,
                              Genome& child2, par::Rng& rng) const {
  guided_walk(*problem_, a, b, steps_, /*eval_stride=*/1, child1, rng);
  guided_walk(*problem_, b, a, steps_, /*eval_stride=*/1, child2, rng);
}

// --- PathRelinkCrossover -----------------------------------------------------

void PathRelinkCrossover::cross_seq(const Genome& a, const Genome& b,
                                    const GenomeTraits& /*traits*/,
                                    Genome& child1, Genome& child2,
                                    par::Rng& rng) const {
  const int distance = hamming_distance(a, b);
  const int stride = std::max(1, distance / std::max(1, samples_));
  guided_walk(*problem_, a, b, distance, stride, child1, rng);
  guided_walk(*problem_, b, a, distance, stride, child2, rng);
}

}  // namespace psga::ga
