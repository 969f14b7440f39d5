#include "src/sched/batch_decode.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace psga::sched {

namespace {

/// Shared length check for every batch kernel (and mirrored by the scalar
/// entry points in flow_shop.cpp): a lane with the wrong gene count would
/// silently read out of bounds, so reject the whole batch loudly.
void check_lane_length(std::size_t got, int expected, const char* what) {
  if (got != static_cast<std::size_t>(expected)) {
    throw std::invalid_argument(std::string(what) + " length " +
                                std::to_string(got) + " != expected " +
                                std::to_string(expected));
  }
}

void pack_flow_shop(const FlowShopInstance& inst,
                    FlowShopBatchScratch& scratch) {
  if (scratch.packed_instance == &inst) return;
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  const auto machines = static_cast<std::size_t>(inst.machines);
  scratch.mproc.resize(jobs * machines);
  for (std::size_t m = 0; m < machines; ++m) {
    const auto& row = inst.proc[m];
    for (std::size_t j = 0; j < jobs; ++j) {
      scratch.mproc[m * jobs + j] = row[j];
    }
  }
  scratch.release.resize(jobs);
  for (int j = 0; j < inst.jobs; ++j) {
    scratch.release[static_cast<std::size_t>(j)] = inst.attrs.release_of(j);
  }
  // Narrow eligibility: with everything non-negative, no completion time
  // can exceed max release + total processing (a job never waits past the
  // moment every other operation has finished), so when that bound fits
  // int32 the narrow recurrence cannot overflow and is exact.
  Time total = 0;
  Time max_release = 0;
  bool non_negative = true;
  for (Time t : scratch.mproc) {
    total += t;
    non_negative = non_negative && t >= 0;
  }
  for (Time r : scratch.release) {
    max_release = std::max(max_release, r);
    non_negative = non_negative && r >= 0;
  }
  scratch.narrow =
      non_negative &&
      total <= std::numeric_limits<std::int32_t>::max() - max_release;
  if (scratch.narrow) {
    scratch.mproc32.assign(scratch.mproc.begin(), scratch.mproc.end());
    scratch.release32.assign(scratch.release.begin(), scratch.release.end());
  }
  scratch.packed_instance = &inst;
}

/// Lanes advanced per SIMD block. A compile-time width keeps every inner
/// loop's trip count constant, so the recurrence compiles to
/// straight-line SIMD with no runtime prologue/alias versioning per
/// machine step (which dominated a variable-width variant of this
/// kernel).
constexpr std::size_t kLaneBlock = 8;

#if defined(__GNUC__) || defined(__clang__)
#define PSGA_BATCH_SIMD 1
/// Four int32 lanes — one SSE2 register. GCC/Clang lower the vector
/// ternary below to pmaxsd (SSE4.1+) or pcmpgtd/pand/por (baseline
/// SSE2); either way the max never becomes the per-lane cmov chain the
/// autovectorizer's SLP pass falls back to on the unrolled scalar loop.
using v4s32 [[gnu::vector_size(16), gnu::aligned(4)]] = std::int32_t;
#endif

/// Advances one permutation position through every machine for a lane
/// block: front[m][w] = max(chain[w], front[m][w]) + mproc[m][jobrow[w]],
/// where chain[w] is the job's completion on the previous machine
/// (rel[w] before machine 0). The chain is carried in registers across
/// the machine loop — one front load, one store, and one block-wide
/// duration gather per machine step. On the narrow path the gathered
/// durations are built straight into vector registers (no stack staging
/// row — a store followed by a wider vector reload would defeat
/// store-to-load forwarding). The wide path keeps the plain loop: int64
/// max has no packed form below AVX-512, so scalar cmov is already the
/// best available.
template <typename T>
inline void advance_position(T* const __restrict front, const T* const mproc,
                             std::size_t jobs, std::size_t machines,
                             const std::size_t* const jobrow,
                             const T* const rel) {
#if PSGA_BATCH_SIMD
  if constexpr (std::is_same_v<T, std::int32_t>) {
    static_assert(kLaneBlock == 8);
    v4s32 a0;
    v4s32 a1;
    std::memcpy(&a0, rel, sizeof(a0));
    std::memcpy(&a1, rel + 4, sizeof(a1));
    for (std::size_t m = 0; m < machines; ++m) {
      const T* const mrow = mproc + m * jobs;
      const v4s32 d0 = {mrow[jobrow[0]], mrow[jobrow[1]], mrow[jobrow[2]],
                        mrow[jobrow[3]]};
      const v4s32 d1 = {mrow[jobrow[4]], mrow[jobrow[5]], mrow[jobrow[6]],
                        mrow[jobrow[7]]};
      T* const row = front + m * kLaneBlock;
      v4s32 b0;
      v4s32 b1;
      std::memcpy(&b0, row, sizeof(b0));
      std::memcpy(&b1, row + 4, sizeof(b1));
      a0 = ((a0 > b0) ? a0 : b0) + d0;
      a1 = ((a1 > b1) ? a1 : b1) + d1;
      std::memcpy(row, &a0, sizeof(a0));
      std::memcpy(row + 4, &a1, sizeof(a1));
    }
    return;
  }
#endif
  T chain[kLaneBlock];
  std::memcpy(chain, rel, sizeof(chain));
  for (std::size_t m = 0; m < machines; ++m) {
    const T* const mrow = mproc + m * jobs;
    T* const row = front + m * kLaneBlock;
    for (std::size_t w = 0; w < kLaneBlock; ++w) {
      const T v = std::max(chain[w], row[w]) + mrow[jobrow[w]];
      row[w] = v;
      chain[w] = v;
    }
  }
}

/// Advances all lanes through the flow-shop recurrence over working rows
/// of width T (int32 on the narrow path, Time otherwise — identical
/// arithmetic when narrow, see FlowShopBatchScratch::narrow). Lanes run
/// in blocks of kLaneBlock; a short tail block is padded with copies of
/// its first live lane whose results are simply not written back. When
/// Completion is false fills out[l] with the last-machine completion;
/// when true records per-job completion times into
/// `completion[lane * jobs + job]` (always as Time).
///
/// Per position the only gathers are kLaneBlock duration loads per
/// machine, pulled straight out of the machine-major matrix into a small
/// stack row that feeds row_step — front rows stay unit-stride and the
/// recurrence is max + add only. front[m][w] after a position's pass is
/// the completion of lane base+w's job on machine m — identical
/// arithmetic to the scalar `prev` chain (the reordering only changes
/// evaluation order of an exact integer DAG, never any value).
template <bool Completion, typename T>
void flow_shop_advance_rows(std::span<const std::span<const int>> perms,
                            std::size_t jobs, std::size_t machines,
                            const T* const mproc, const T* const release,
                            std::vector<T>& front_v, Time* const out,
                            Time* const completion) {
  const std::size_t lanes = perms.size();
  front_v.resize(machines * kLaneBlock);
  T* const front = front_v.data();

  for (std::size_t base = 0; base < lanes; base += kLaneBlock) {
    const std::size_t live = std::min(kLaneBlock, lanes - base);
    const int* perm_ptr[kLaneBlock];
    for (std::size_t w = 0; w < kLaneBlock; ++w) {
      perm_ptr[w] = perms[base + (w < live ? w : 0)].data();
    }
    std::fill(front, front + machines * kLaneBlock, T{0});

    for (std::size_t p = 0; p < jobs; ++p) {
      std::size_t jobrow[kLaneBlock];
      T rel[kLaneBlock];
      for (std::size_t w = 0; w < kLaneBlock; ++w) {
        jobrow[w] = static_cast<std::size_t>(perm_ptr[w][p]);
        rel[w] = release[jobrow[w]];
      }
      advance_position(front, mproc, jobs, machines, jobrow, rel);
      if constexpr (Completion) {
        for (std::size_t w = 0; w < live; ++w) {
          // With no machines the job "completes" at its release time,
          // matching the scalar recurrence's untouched `prev`.
          completion[(base + w) * jobs + jobrow[w]] = static_cast<Time>(
              machines > 0 ? front[(machines - 1) * kLaneBlock + w]
                           : rel[w]);
        }
      }
    }
    if constexpr (!Completion) {
      for (std::size_t w = 0; w < live; ++w) {
        out[base + w] =
            machines > 0
                ? static_cast<Time>(front[(machines - 1) * kLaneBlock + w])
                : 0;
      }
    }
  }
}

/// Packs, validates, and runs the recurrence at the width the instance
/// admits. Fills `out` (lanes' last-machine completions) when Completion
/// is false, scratch.completion when true.
template <bool Completion>
void flow_shop_advance(const FlowShopInstance& inst,
                       std::span<const std::span<const int>> perms,
                       FlowShopBatchScratch& scratch, Time* const out) {
  pack_flow_shop(inst, scratch);
  for (const auto& perm : perms) {
    check_lane_length(perm.size(), inst.jobs, "flow-shop permutation");
  }
  const auto machines = static_cast<std::size_t>(inst.machines);
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  if constexpr (Completion) {
    scratch.completion.assign(perms.size() * jobs, 0);
  }
  if (scratch.narrow) {
    flow_shop_advance_rows<Completion, std::int32_t>(
        perms, jobs, machines, scratch.mproc32.data(),
        scratch.release32.data(), scratch.front32, out,
        scratch.completion.data());
  } else {
    flow_shop_advance_rows<Completion, Time>(
        perms, jobs, machines, scratch.mproc.data(), scratch.release.data(),
        scratch.front, out, scratch.completion.data());
  }
}

}  // namespace

void flow_shop_makespan_batch(const FlowShopInstance& inst,
                              std::span<const std::span<const int>> perms,
                              std::span<Time> out,
                              FlowShopBatchScratch& scratch) {
  flow_shop_advance<false>(inst, perms, scratch, out.data());
}

void flow_shop_objective_batch(const FlowShopInstance& inst,
                               std::span<const std::span<const int>> perms,
                               Criterion criterion, std::span<double> out,
                               FlowShopBatchScratch& scratch) {
  const std::size_t lanes = perms.size();
  if (criterion == Criterion::kMakespan) {
    scratch.makespans.resize(lanes);
    flow_shop_advance<false>(inst, perms, scratch, scratch.makespans.data());
    for (std::size_t l = 0; l < lanes; ++l) {
      out[l] = static_cast<double>(scratch.makespans[l]);
    }
    return;
  }
  flow_shop_advance<true>(inst, perms, scratch, nullptr);
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  for (std::size_t l = 0; l < lanes; ++l) {
    out[l] = evaluate_criterion(
        criterion,
        std::span<const Time>(scratch.completion.data() + l * jobs, jobs),
        inst.attrs);
  }
}

}  // namespace psga::sched
