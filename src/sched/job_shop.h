// Job shop: each job has its own machine route. Two decoders, matching the
// survey's Section III.A "direct way" and the Giffler–Thompson-style active
// schedule builders several surveyed works use ([17] prior-rule active
// schedules, [21] G&T-inspired operators, [26] operation-based
// representation).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/par/rng.h"
#include "src/sched/objectives.h"
#include "src/sched/schedule.h"

namespace psga::sched {

struct JsOperation {
  int machine = 0;
  Time duration = 0;
};

struct JobShopInstance {
  int jobs = 0;
  int machines = 0;
  /// ops[job] = the job's route, in processing order.
  std::vector<std::vector<JsOperation>> ops;
  JobAttributes attrs;

  int total_ops() const;
  const JsOperation& op(int job, int index) const {
    return ops[static_cast<std::size_t>(job)][static_cast<std::size_t>(index)];
  }
  int ops_of(int job) const {
    return static_cast<int>(ops[static_cast<std::size_t>(job)].size());
  }

  ValidationSpec validation_spec() const;
};

/// Reusable Giffler–Thompson scratch: one per worker, reused for every
/// genome, so the frontier vectors are allocated once per run instead of
/// once per decode. Capacity only, never state.
struct JobShopScratch {
  std::vector<int> next_op;
  std::vector<Time> job_free;
  std::vector<Time> machine_free;
  std::vector<Time> work_left;
  std::vector<Time> completion;
  std::vector<int> job_offset;  ///< Giffler–Thompson: gene_pos index of (j, 0)
  std::vector<int> gene_pos;    ///< chromosome position of gene (j, k)
  std::vector<int> next_machine;  ///< per job, of its next operation
  std::vector<Time> next_duration;
  std::vector<std::uint64_t> gene_key;  ///< (gene position << 32) | job
  /// Register path: per route slot, (gene position << 4) | job, one row
  /// of GtRouteTable::slots() per genome of a lockstep group.
  std::vector<std::int32_t> slot_key;
};

/// An instance as the Giffler–Thompson register path reads it: a flat
/// int32 route table for a frontier of one 16-lane register per field,
/// lane j for job j. Slot begin[j] + k holds job j's k-th operation and
/// slot end[j] (= begin[j] + ops_of(j)) a sentinel, machine lane 15 with
/// duration 0, so a finished job needs no branch; lanes past the last
/// job start on one shared sentinel slot. Built once per instance
/// (JobShopProblem builds one at construction) and never keyed on its
/// address.
struct GtRouteTable {
  static constexpr int kLanes = 16;

  GtRouteTable() = default;
  explicit GtRouteTable(const JobShopInstance& inst);

  /// giffler_thompson_objective_batch runs the register kernel: the CPU
  /// reports AVX-512F and BMI, and the instance fits the frontier. It
  /// fits with jobs <= 16, machines <= 15 (lane 15 is the sentinel's),
  /// every machine id in range, fewer than 2^27 operations (gene keys
  /// are int32), non-negative durations and release dates, and max
  /// release + total processing < INT32_MAX, so no completion reaches
  /// the sentinel's INT32_MAX. The table is empty when this is false.
  bool registers = false;
  int total_ops = 0;
  std::vector<std::int32_t> machine;   ///< per slot
  std::vector<std::int32_t> duration;  ///< per slot
  std::array<std::int32_t, kLanes> begin{};
  std::array<std::int32_t, kLanes> end{};
  std::array<std::int32_t, kLanes> release{};

  std::size_t slots() const { return machine.size(); }
};

/// Decodes an operation-based chromosome (permutation with repetition: job
/// j appears once per operation; the k-th occurrence of j is its k-th
/// operation) into a semi-active schedule. This is the reference that the
/// DowntimeFrontier replay (dynamic.h), which computes every semi-active
/// objective, is tested against.
Schedule decode_operation_based(const JobShopInstance& inst,
                                std::span<const int> op_sequence);

/// Priority rules for the Giffler–Thompson active schedule builder.
enum class PriorityRule { kSpt, kLpt, kMostWorkRemaining, kFcfs, kRandom };

/// Giffler–Thompson active schedule generation driven by a priority rule.
/// `rng` is only used by PriorityRule::kRandom.
Schedule giffler_thompson(const JobShopInstance& inst, PriorityRule rule,
                          par::Rng& rng);

/// Giffler–Thompson where conflicts are resolved by an operation-based
/// chromosome: among the conflict set, the operation whose gene occurs
/// earliest (among not-yet-consumed genes) wins. Always yields an active
/// schedule for any permutation-with-repetition, and throws
/// std::invalid_argument for any other sequence.
Schedule giffler_thompson_sequence(const JobShopInstance& inst,
                                   std::span<const int> op_sequence);

/// job_shop_objective(inst, giffler_thompson_sequence(inst, op_sequence),
/// criterion), from completion times alone: no schedule is materialized.
/// Throws as giffler_thompson_sequence does. Allocation-free once
/// `scratch` has grown.
double giffler_thompson_objective(const JobShopInstance& inst,
                                  std::span<const int> op_sequence,
                                  Criterion criterion,
                                  JobShopScratch& scratch);

/// out[i] = giffler_thompson_objective(inst, sequences[i], criterion,
/// scratch) for every i, with `routes` built from `inst`. When
/// routes.registers, sequences run four at a time in lockstep on the
/// register kernel (a tail of 1–3 runs only its own lanes); otherwise
/// each runs the scalar core. The values are identical either way.
/// Throws as giffler_thompson_sequence does for the first malformed
/// sequence (out is then unspecified); `scratch` stays usable.
void giffler_thompson_objective_batch(
    const JobShopInstance& inst, const GtRouteTable& routes,
    std::span<const std::span<const int>> sequences, Criterion criterion,
    std::span<double> out, JobShopScratch& scratch);

/// Giffler–Thompson where the k-th conflict is resolved by the k-th entry
/// of `rule_per_step` (indices into {SPT, LPT, MWR, FCFS}) — the survey's
/// "indirect way" chromosome: "a sequence of dispatching rules for job
/// assignment" [12].
Schedule giffler_thompson_rules(const JobShopInstance& inst,
                                std::span<const int> rule_per_step);

/// Number of distinct rules giffler_thompson_rules understands.
constexpr int kDispatchRuleCount = 4;

/// Criterion value of a decoded schedule.
double job_shop_objective(const JobShopInstance& inst,
                          const Schedule& schedule, Criterion criterion);

/// A valid operation-based chromosome drawn uniformly at random.
std::vector<int> random_operation_sequence(const JobShopInstance& inst,
                                           par::Rng& rng);

}  // namespace psga::sched
