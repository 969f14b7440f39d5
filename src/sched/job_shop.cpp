#include "src/sched/job_shop.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace psga::sched {

int JobShopInstance::total_ops() const {
  int acc = 0;
  for (const auto& route : ops) acc += static_cast<int>(route.size());
  return acc;
}

namespace {

std::optional<Time> js_duration(const void* ctx, int job, int index,
                                int machine) {
  const auto& inst = *static_cast<const JobShopInstance*>(ctx);
  const JsOperation& op = inst.op(job, index);
  if (machine != op.machine) return std::nullopt;
  return op.duration;
}

}  // namespace

ValidationSpec JobShopInstance::validation_spec() const {
  ValidationSpec spec;
  spec.jobs = jobs;
  spec.machines = machines;
  spec.ops_per_job.reserve(static_cast<std::size_t>(jobs));
  for (const auto& route : ops) {
    spec.ops_per_job.push_back(static_cast<int>(route.size()));
  }
  spec.ordered_stages = true;
  spec.release = attrs.release;
  spec.duration = &js_duration;
  spec.ctx = this;
  return spec;
}

Schedule decode_operation_based(const JobShopInstance& inst,
                                std::span<const int> op_sequence) {
  Schedule schedule;
  schedule.ops.reserve(op_sequence.size());
  std::vector<int> next_op(static_cast<std::size_t>(inst.jobs), 0);
  std::vector<Time> job_free(static_cast<std::size_t>(inst.jobs));
  for (int j = 0; j < inst.jobs; ++j) {
    job_free[static_cast<std::size_t>(j)] = inst.attrs.release_of(j);
  }
  std::vector<Time> machine_free(static_cast<std::size_t>(inst.machines), 0);
  for (int job : op_sequence) {
    const int index = next_op[static_cast<std::size_t>(job)]++;
    const JsOperation& op = inst.op(job, index);
    const Time start = std::max(job_free[static_cast<std::size_t>(job)],
                                machine_free[static_cast<std::size_t>(op.machine)]);
    const Time end = start + op.duration;
    schedule.ops.push_back(ScheduledOp{job, index, op.machine, start, end});
    job_free[static_cast<std::size_t>(job)] = end;
    machine_free[static_cast<std::size_t>(op.machine)] = end;
  }
  return schedule;
}

namespace {

/// s.gene_pos[job_offset[j] + k] = position of job j's k-th gene. Throws
/// std::invalid_argument unless `seq` names every job once per operation.
void place_genes(const JobShopInstance& inst, std::span<const int> seq,
                 JobShopScratch& s) {
  s.job_offset.assign(1, 0);
  for (const auto& route : inst.ops) {
    s.job_offset.push_back(s.job_offset.back() +
                           static_cast<int>(route.size()));
  }
  const auto total = static_cast<std::size_t>(s.job_offset.back());
  if (seq.size() != total) {
    throw std::invalid_argument("job-shop operation sequence length " +
                                std::to_string(seq.size()) + " != expected " +
                                std::to_string(total));
  }
  s.gene_pos.resize(total);
  s.next_op.assign(s.job_offset.begin(), s.job_offset.end() - 1);
  for (std::size_t pos = 0; pos < total; ++pos) {
    const int j = seq[pos];
    if (j < 0 || j >= inst.jobs || s.next_op[j] == s.job_offset[j + 1]) {
      throw std::invalid_argument(
          "job-shop operation sequence gene " + std::to_string(j) +
          " at position " + std::to_string(pos) +
          " names no job with an operation left");
    }
    s.gene_pos[s.next_op[j]++] = static_cast<int>(pos);
  }
}

struct SequencePick {};  ///< the sequence decoder's pick, fused into scan 2

/// The one Giffler–Thompson core, over a per-job frontier: each job's next
/// operation (route index, machine, duration and, for SequencePick, gene
/// key) and job_free. A finished job points at the sentinel machine
/// `machines`, free at the Time maximum, with duration 0, so no scan
/// branches on it. Scan 1 finds the earliest completion (first minimum:
/// lowest job id) and its machine; scan 2 takes the jobs whose next
/// operation is on that machine and starts before that completion, plus
/// the job that set it (a zero-duration setter starts at it). Any `pick`
/// but SequencePick gets them in ascending id order. `emit(job, index,
/// machine, start, end)` receives every scheduled operation.
template <typename Pick, typename Emit>
void giffler_thompson_core(const JobShopInstance& inst, JobShopScratch& s,
                           Pick&& pick, Emit&& emit) {
  constexpr bool kSequence = std::is_same_v<std::decay_t<Pick>, SequencePick>;
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  const int machines = inst.machines;
  s.next_op.assign(jobs, 0);
  s.next_machine.resize(jobs);
  s.next_duration.resize(jobs);
  s.gene_key.resize(jobs);
  s.job_free.resize(jobs);
  s.machine_free.assign(static_cast<std::size_t>(machines), 0);
  s.machine_free.push_back(std::numeric_limits<Time>::max());
  int* const next = s.next_op.data();
  int* const next_machine = s.next_machine.data();
  Time* const next_duration = s.next_duration.data();
  std::uint64_t* const gene_key = s.gene_key.data();
  Time* const job_free = s.job_free.data();
  Time* const machine_free = s.machine_free.data();
  const auto load_next = [&](std::size_t j) {
    const auto& route = inst.ops[j];
    const auto k = static_cast<std::size_t>(next[j]);
    const bool done = k == route.size();
    next_machine[j] = done ? machines : route[k].machine;
    next_duration[j] = done ? 0 : route[k].duration;
    if constexpr (kSequence) {
      const auto pos = done ? ~0U : static_cast<std::uint32_t>(
                                        s.gene_pos[s.job_offset[j] + k]);
      gene_key[j] = std::uint64_t{pos} << 32 | j;
    }
  };
  for (std::size_t j = 0; j < jobs; ++j) {
    job_free[j] = inst.attrs.release_of(static_cast<int>(j));
    load_next(j);
  }
  std::vector<int> conflict(kSequence ? 0 : jobs);

  for (int step = 0, total = inst.total_ops(); step < total; ++step) {
    Time best = std::numeric_limits<Time>::max();
    std::size_t setter = 0;
    for (std::size_t j = 0; j < jobs; ++j) {
      const Time completion =
          std::max(job_free[j], machine_free[next_machine[j]]) +
          next_duration[j];
      const bool earlier = completion < best;
      best = earlier ? completion : best;
      setter = earlier ? j : setter;
    }
    const int conflict_machine = next_machine[setter];
    const Time machine_ready = machine_free[conflict_machine];
    // Eligible besides the setter, which always is.
    const auto starts_before = [&](std::size_t j) {
      return (next_machine[j] == conflict_machine) &
             (std::max(job_free[j], machine_ready) < best);
    };
    std::size_t winner = setter;
    if constexpr (kSequence) {
      // Min over gene keys, masked to all ones when ineligible, so nothing
      // branches. Gene positions are distinct: the lowest key wins.
      std::uint64_t win = gene_key[setter];
      for (std::size_t j = 0; j < jobs; ++j) {
        const std::uint64_t mask = 0 - std::uint64_t{!starts_before(j)};
        win = std::min(win, gene_key[j] | mask);
      }
      winner = static_cast<std::uint32_t>(win);
    } else {
      std::size_t size = 0;
      for (std::size_t j = 0; j < jobs; ++j) {
        conflict[size] = static_cast<int>(j);
        size += starts_before(j) | (j == setter) ? 1 : 0;
      }
      winner = static_cast<std::size_t>(pick(std::span(conflict.data(), size)));
    }
    const int index = next[winner]++;
    const int machine = next_machine[winner];
    const Time start = std::max(job_free[winner], machine_free[machine]);
    const Time end = start + next_duration[winner];
    job_free[winner] = end;
    machine_free[machine] = end;
    load_next(winner);
    emit(static_cast<int>(winner), index, machine, start, end);
  }
}

/// The rule decoders: `rule_at(step)` resolves the step-th conflict.
template <typename RuleAt>
Schedule giffler_thompson_by_rule(const JobShopInstance& inst,
                                  RuleAt&& rule_at, par::Rng* rng) {
  JobShopScratch s;
  s.work_left.assign(inst.ops.size(), 0);
  for (std::size_t j = 0; j < inst.ops.size(); ++j) {
    for (const JsOperation& op : inst.ops[j]) s.work_left[j] += op.duration;
  }
  Schedule schedule;
  schedule.ops.reserve(static_cast<std::size_t>(inst.total_ops()));
  int step = 0;
  giffler_thompson_core(
      inst, s,
      [&](std::span<const int> jobs) {
        const Time* const duration = s.next_duration.data();
        const Time* const work = s.work_left.data();
        int best = jobs.front();
        switch (rule_at(step++)) {
          case PriorityRule::kSpt:
            for (int j : jobs) best = duration[j] < duration[best] ? j : best;
            break;
          case PriorityRule::kLpt:
            for (int j : jobs) best = duration[j] > duration[best] ? j : best;
            break;
          case PriorityRule::kMostWorkRemaining:
            for (int j : jobs) best = work[j] > work[best] ? j : best;
            break;
          case PriorityRule::kFcfs:  // the first job id in the conflict set
            break;
          case PriorityRule::kRandom:
            best = jobs[static_cast<std::size_t>(rng->below(jobs.size()))];
            break;
        }
        return best;
      },
      [&](int j, int index, int machine, Time start, Time end) {
        schedule.ops.push_back(ScheduledOp{j, index, machine, start, end});
        s.work_left[static_cast<std::size_t>(j)] -= end - start;
      });
  return schedule;
}

}  // namespace

Schedule giffler_thompson(const JobShopInstance& inst, PriorityRule rule,
                          par::Rng& rng) {
  return giffler_thompson_by_rule(inst, [rule](int) { return rule; }, &rng);
}

Schedule giffler_thompson_sequence(const JobShopInstance& inst,
                                   std::span<const int> op_sequence) {
  JobShopScratch scratch;
  place_genes(inst, op_sequence, scratch);
  Schedule schedule;
  schedule.ops.reserve(op_sequence.size());
  giffler_thompson_core(
      inst, scratch, SequencePick{},
      [&](int j, int index, int machine, Time start, Time end) {
        schedule.ops.push_back(ScheduledOp{j, index, machine, start, end});
      });
  return schedule;
}

double giffler_thompson_objective(const JobShopInstance& inst,
                                  std::span<const int> op_sequence,
                                  Criterion criterion,
                                  JobShopScratch& scratch) {
  place_genes(inst, op_sequence, scratch);
  scratch.completion.assign(static_cast<std::size_t>(inst.jobs), 0);
  giffler_thompson_core(
      inst, scratch, SequencePick{}, [&](int j, int, int, Time, Time end) {
        scratch.completion[static_cast<std::size_t>(j)] = end;
      });
  return evaluate_criterion(criterion, scratch.completion, inst.attrs);
}

Schedule giffler_thompson_rules(const JobShopInstance& inst,
                                std::span<const int> rule_per_step) {
  // Rules 0..3 are the first four PriorityRules: SPT, LPT, MWR, FCFS.
  return giffler_thompson_by_rule(
      inst,
      [rule_per_step](int step) {
        const int raw = step < static_cast<int>(rule_per_step.size())
                            ? rule_per_step[static_cast<std::size_t>(step)]
                            : 0;
        return static_cast<PriorityRule>(
            ((raw % kDispatchRuleCount) + kDispatchRuleCount) %
            kDispatchRuleCount);
      },
      nullptr);
}

double job_shop_objective(const JobShopInstance& inst,
                          const Schedule& schedule, Criterion criterion) {
  return evaluate_criterion(criterion,
                            schedule.job_completion_times(inst.jobs),
                            inst.attrs);
}

std::vector<int> random_operation_sequence(const JobShopInstance& inst,
                                           par::Rng& rng) {
  std::vector<int> seq;
  seq.reserve(static_cast<std::size_t>(inst.total_ops()));
  for (int j = 0; j < inst.jobs; ++j) {
    for (int k = 0; k < inst.ops_of(j); ++k) seq.push_back(j);
  }
  rng.shuffle(seq);
  return seq;
}

}  // namespace psga::sched
