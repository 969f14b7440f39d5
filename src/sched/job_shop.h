// Job shop: each job has its own machine route. Two decoders, matching the
// survey's Section III.A "direct way" and the Giffler–Thompson-style active
// schedule builders several surveyed works use ([17] prior-rule active
// schedules, [21] G&T-inspired operators, [26] operation-based
// representation).
#pragma once

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
