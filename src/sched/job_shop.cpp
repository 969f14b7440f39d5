#include "src/sched/job_shop.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "src/par/cpu.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

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

/// Walks an operation-based chromosome of `total` genes: job j's k-th
/// gene, at position pos, gets put(first[j] + k, pos, j). Throws
/// std::invalid_argument unless `seq` names every job once per operation
/// (job j has last[j] - first[j]). `next` is scratch.
template <typename Put>
void for_each_gene(std::span<const int> seq, std::size_t total,
                   std::span<const int> first, std::span<const int> last,
                   std::vector<int>& next, Put&& put) {
  if (seq.size() != total) {
    throw std::invalid_argument("job-shop operation sequence length " +
                                std::to_string(seq.size()) + " != expected " +
                                std::to_string(total));
  }
  const auto jobs = static_cast<int>(first.size());
  next.assign(first.begin(), first.end());
  for (std::size_t pos = 0; pos < total; ++pos) {
    const int j = seq[pos];
    if (j < 0 || j >= jobs || next[j] == last[j]) {
      throw std::invalid_argument(
          "job-shop operation sequence gene " + std::to_string(j) +
          " at position " + std::to_string(pos) +
          " names no job with an operation left");
    }
    put(next[j]++, static_cast<int>(pos), j);
  }
}

/// s.gene_pos[job_offset[j] + k] = position of job j's k-th gene.
void place_genes(const JobShopInstance& inst, std::span<const int> seq,
                 JobShopScratch& s) {
  s.job_offset.assign(1, 0);
  for (const auto& route : inst.ops) {
    s.job_offset.push_back(s.job_offset.back() +
                           static_cast<int>(route.size()));
  }
  const auto total = static_cast<std::size_t>(s.job_offset.back());
  s.gene_pos.resize(total);
  const std::span<const int> offsets(s.job_offset);
  for_each_gene(seq, total, offsets.first(offsets.size() - 1),
                offsets.subspan(1), s.next_op,
                [gene_pos = s.gene_pos.data()](int slot, int pos, int) {
                  gene_pos[slot] = pos;
                });
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

// --- the register path -------------------------------------------------------

namespace {

constexpr int kLanes = GtRouteTable::kLanes;
constexpr std::int32_t kSentinelMachine = kLanes - 1;
constexpr std::int32_t kNever = std::numeric_limits<std::int32_t>::max();
constexpr int kLockstep = 4;  ///< genomes whose step chains overlap

}  // namespace

GtRouteTable::GtRouteTable(const JobShopInstance& inst) {
  const par::CpuFeatures& cpu = par::cpu_features();
  if (!cpu.avx512f || !cpu.bmi || inst.jobs > kLanes ||
      inst.machines > kLanes - 1 ||
      static_cast<int>(inst.ops.size()) != inst.jobs) {
    return;
  }
  std::int64_t work = 0;
  std::int64_t latest_release = 0;
  std::int64_t ops = 0;
  for (int j = 0; j < inst.jobs; ++j) {
    const Time r = inst.attrs.release_of(j);
    if (r < 0 || r >= kNever) return;
    latest_release = std::max(latest_release, r);
    for (const JsOperation& op : inst.ops[static_cast<std::size_t>(j)]) {
      // Each term is checked before it is added, so no sum overflows.
      if (op.duration < 0 || op.duration >= kNever - work ||
          op.machine < 0 || op.machine >= inst.machines) {
        return;
      }
      work += op.duration;
      ++ops;
    }
  }
  if (latest_release + work >= kNever || ops >= (std::int64_t{1} << 27)) {
    return;
  }
  total_ops = static_cast<int>(ops);
  const auto add_sentinel = [this] {
    machine.push_back(kSentinelMachine);
    duration.push_back(0);
  };
  for (int j = 0; j < inst.jobs; ++j) {
    begin[j] = static_cast<std::int32_t>(machine.size());
    for (const JsOperation& op : inst.ops[static_cast<std::size_t>(j)]) {
      machine.push_back(op.machine);
      duration.push_back(static_cast<std::int32_t>(op.duration));
    }
    end[j] = static_cast<std::int32_t>(machine.size());
    add_sentinel();
    release[j] = static_cast<std::int32_t>(inst.attrs.release_of(j));
  }
  if (inst.jobs < kLanes) {
    std::fill(begin.begin() + inst.jobs, begin.end(),
              static_cast<std::int32_t>(machine.size()));
    std::fill(end.begin() + inst.jobs, end.end(),
              static_cast<std::int32_t>(machine.size()));
    add_sentinel();
  }
  registers = true;
}

namespace {

#if defined(__x86_64__) && defined(__GNUC__)

// GCC 12's AVX-512 intrinsics hand an uninitialized _mm512_undefined_*()
// pass-through to their masked builtins, and -Wmaybe-uninitialized then
// reports it at every inlined call. Every lane those builtins return is
// written, so the reports are false; later GCCs do not emit them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/// Every lane = the minimum over v's 16 lanes.
[[gnu::target("avx512f"), gnu::always_inline]] inline __m512i
broadcast_min(__m512i v) {
  v = _mm512_min_epi32(v, _mm512_shuffle_i32x4(v, v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm512_min_epi32(v, _mm512_shuffle_i32x4(v, v, _MM_SHUFFLE(2, 3, 0, 1)));
  v = _mm512_min_epi32(v, _mm512_shuffle_epi32(v, _MM_PERM_BADC));
  return _mm512_min_epi32(v, _mm512_shuffle_epi32(v, _MM_PERM_CDAB));
}

/// The Giffler–Thompson step of giffler_thompson_core's SequencePick on
/// a register frontier, for G genomes in lockstep: per genome, one int32
/// lane per job of job_free, next machine, next duration and next gene
/// key (gene position << 4 | job), and machine_free with the sentinel's
/// INT32_MAX in lane 15. machine_free[next machine] is one vpermd; scan 1
/// is a horizontal min whose lowest equal lane (tzcnt) is the setter, and
/// scan 2 a horizontal min over the eligible lanes' gene keys, whose low
/// nibble is the winner's lane. keys[g] is genome g's slot_key row;
/// completion[g][j] gets job j's last end (0 for a job with no
/// operation).
template <int G>
[[gnu::target("avx512f,bmi")]] void giffler_thompson_registers(
    const GtRouteTable& routes, const std::int32_t* const* keys,
    std::int32_t (*completion)[kLanes]) {
  const __m512i never = _mm512_set1_epi32(kNever);
  const __m512i lane =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i begin = _mm512_loadu_si512(routes.begin.data());
  const std::int32_t* const route_machine = routes.machine.data();
  const std::int32_t* const route_duration = routes.duration.data();
  const __m512i first_machine =
      _mm512_i32gather_epi32(begin, route_machine, 4);
  const __m512i first_duration =
      _mm512_i32gather_epi32(begin, route_duration, 4);
  __m512i job_free[G];
  __m512i machine[G];
  __m512i duration[G];
  __m512i key[G];
  __m512i machine_free[G];
  alignas(64) std::int32_t slot[G][kLanes] = {};
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    job_free[g] = _mm512_loadu_si512(routes.release.data());
    machine[g] = first_machine;
    duration[g] = first_duration;
    key[g] = _mm512_i32gather_epi32(begin, keys[g], 4);
    machine_free[g] = _mm512_maskz_mov_epi32(
        static_cast<__mmask16>(1U << kSentinelMachine), never);
    _mm512_store_si512(slot[g], begin);
  }
  for (int step = 0; step < routes.total_ops; ++step) {
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const __m512i ready = _mm512_max_epi32(
          job_free[g], _mm512_permutexvar_epi32(machine[g], machine_free[g]));
      const __m512i completes = _mm512_add_epi32(ready, duration[g]);
      const __m512i best = broadcast_min(completes);
      const unsigned setter =
          _tzcnt_u32(_mm512_cmpeq_epi32_mask(completes, best));
      const __m512i conflict =
          _mm512_permutexvar_epi32(_mm512_set1_epi32(static_cast<int>(setter)),
                                   machine[g]);
      const __m512i start = _mm512_max_epi32(
          job_free[g], _mm512_permutexvar_epi32(conflict, machine_free[g]));
      const __mmask16 eligible = static_cast<__mmask16>(
          _mm512_mask_cmplt_epi32_mask(
              _mm512_cmpeq_epi32_mask(machine[g], conflict), start, best) |
          (1U << setter));
      const __m512i winner_key =
          broadcast_min(_mm512_mask_blend_epi32(eligible, never, key[g]));
      // vpermd reads the low nibble of each index: the winner's lane.
      const __m512i end = _mm512_permutexvar_epi32(
          winner_key, _mm512_add_epi32(start, duration[g]));
      const int winner =
          _mm_cvtsi128_si32(_mm512_castsi512_si128(winner_key)) & (kLanes - 1);
      const auto winner_lane = static_cast<__mmask16>(1U << winner);
      job_free[g] = _mm512_mask_mov_epi32(job_free[g], winner_lane, end);
      machine_free[g] = _mm512_mask_mov_epi32(
          machine_free[g], _mm512_cmpeq_epi32_mask(lane, conflict), end);
      const std::int32_t next = ++slot[g][winner];
      machine[g] =
          _mm512_mask_set1_epi32(machine[g], winner_lane, route_machine[next]);
      duration[g] = _mm512_mask_set1_epi32(duration[g], winner_lane,
                                           route_duration[next]);
      key[g] = _mm512_mask_set1_epi32(key[g], winner_lane, keys[g][next]);
    }
  }
  // A job with no operation completes at 0, as in the scalar core.
  const __mmask16 has_ops = _mm512_cmpneq_epi32_mask(
      begin, _mm512_loadu_si512(routes.end.data()));
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    _mm512_storeu_si512(completion[g],
                        _mm512_maskz_mov_epi32(has_ops, job_free[g]));
  }
}

#pragma GCC diagnostic pop

#endif

/// Genome `seq`'s gene keys into `key` (a slot_key row); throws as
/// place_genes does.
void place_gene_keys(const JobShopInstance& inst, const GtRouteTable& routes,
                     std::span<const int> seq, std::int32_t* key,
                     std::vector<int>& next) {
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  for_each_gene(seq, static_cast<std::size_t>(routes.total_ops),
                std::span<const int>(routes.begin).first(jobs),
                std::span<const int>(routes.end).first(jobs), next,
                [key](int slot, int pos, int j) { key[slot] = pos << 4 | j; });
  for (std::int32_t sentinel : routes.end) key[sentinel] = kNever;
}

}  // namespace

void giffler_thompson_objective_batch(
    const JobShopInstance& inst, const GtRouteTable& routes,
    std::span<const std::span<const int>> sequences, Criterion criterion,
    std::span<double> out, JobShopScratch& scratch) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (routes.registers) {
    const std::size_t slots = routes.slots();
    scratch.slot_key.resize(kLockstep * slots);
    const auto jobs = static_cast<std::size_t>(inst.jobs);
    for (std::size_t at = 0; at < sequences.size(); at += kLockstep) {
      const std::size_t group =
          std::min<std::size_t>(kLockstep, sequences.size() - at);
      std::int32_t* keys[kLockstep] = {};
      for (std::size_t g = 0; g < group; ++g) {
        keys[g] = scratch.slot_key.data() + g * slots;
        place_gene_keys(inst, routes, sequences[at + g], keys[g],
                        scratch.next_op);
      }
      alignas(64) std::int32_t completion[kLockstep][kLanes] = {};
      switch (group) {
        case 4: giffler_thompson_registers<4>(routes, keys, completion); break;
        case 3: giffler_thompson_registers<3>(routes, keys, completion); break;
        case 2: giffler_thompson_registers<2>(routes, keys, completion); break;
        default: giffler_thompson_registers<1>(routes, keys, completion);
      }
      for (std::size_t g = 0; g < group; ++g) {
        scratch.completion.assign(completion[g], completion[g] + jobs);
        out[at + g] =
            evaluate_criterion(criterion, scratch.completion, inst.attrs);
      }
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    out[i] = giffler_thompson_objective(inst, sequences[i], criterion, scratch);
  }
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
