// Batch-first decode kernels for the permutation flow shop: the genome
// batch is the processing unit, the way BESS modules process a
// PacketBatch instead of one packet.
//
// The scalar decoders in flow_shop.h walk one permutation at a time
// through cache-cold instance matrices. These kernels amortize that walk
// over a whole batch (an Evaluator lane's slice, in one call): a
// structure-of-arrays completion front C[machine][lane] in contiguous
// block-major layout advances permutations in lockstep blocks of fixed
// SIMD width, so the working set is one block whatever the batch size. Per machine step the kernel
// gathers one block-wide duration row out of a machine-major matrix
// packed once per instance, then runs a unit-stride max+add recurrence
// over the lanes (explicit vector code on GCC/Clang). The job shop's
// kernels live elsewhere: its semi-active genomes replay a
// DowntimeFrontier (dynamic.h) one at a time, and its active ones go
// through giffler_thompson_objective_batch (job_shop.h), which runs four
// in lockstep on a register frontier where the CPU and instance allow.
//
// Determinism contract: every lane performs exactly the arithmetic of
// its scalar twin in the same order, so results are bit-identical to
// flow_shop_objective for any batch size and any batch composition.
// Scratch structs carry capacity only, never state (see
// docs/architecture.md, "Workspace = capacity"). Two buffers grow with
// the batch rather than the block: `completion` below (non-makespan
// criteria) and the random-key problem's `perm_storage`, each at most
// about twice the memory of the batch's own genomes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/sched/flow_shop.h"

namespace psga::sched {

/// Reusable scratch for the flow-shop batch kernels. The machine-major
/// processing-time matrix is packed on first use per instance (keyed on
/// instance address) and reused for every subsequent batch; the front
/// array is block-major [machine * block + lane-in-block] for the
/// fixed-width lane block the kernel advances at a time, so every inner
/// loop is unit-stride with a compile-time trip count.
struct FlowShopBatchScratch {
  const void* packed_instance = nullptr;  ///< identity tag of the pack
  /// Every completion time of this instance provably fits std::int32_t
  /// (max release + total processing <= INT32_MAX, all values >= 0), so
  /// the kernels run the 32-bit twins below. Baseline x86-64 has packed
  /// int32 max but no packed int64 max (that needs AVX-512), so the
  /// narrow recurrence is the one the auto-vectorizer can actually turn
  /// into SIMD — and int32 arithmetic without overflow is bit-identical
  /// to the scalar int64 recurrence.
  bool narrow = false;
  std::vector<Time> mproc;      ///< machine-major flatten: [m * jobs + job]
  std::vector<Time> release;    ///< per-job release times
  std::vector<Time> front;      ///< completion front, [m * block + lane]
  std::vector<Time> completion;  ///< [lane * jobs + job] (criteria paths; whole batch)
  std::vector<Time> makespans;   ///< per-lane makespans (objective entry)
  // 32-bit twins of the packed matrix and working rows (narrow path).
  std::vector<std::int32_t> mproc32;
  std::vector<std::int32_t> release32;
  std::vector<std::int32_t> front32;
};

/// Makespans of B full permutations in lockstep: out[l] is bit-identical
/// to flow_shop_makespan(inst, perms[l]). Throws std::invalid_argument
/// when any perms[l].size() != inst.jobs (shared length check — the same
/// contract the scalar entry points enforce).
void flow_shop_makespan_batch(const FlowShopInstance& inst,
                              std::span<const std::span<const int>> perms,
                              std::span<Time> out,
                              FlowShopBatchScratch& scratch);

/// Criterion values of B full permutations; equals
/// flow_shop_objective(inst, perms[l], criterion) per lane bit-for-bit.
void flow_shop_objective_batch(const FlowShopInstance& inst,
                               std::span<const std::span<const int>> perms,
                               Criterion criterion, std::span<double> out,
                               FlowShopBatchScratch& scratch);

}  // namespace psga::sched
