// The batch decode kernels (sched/batch_decode.h) and the Evaluator's
// lane slicing must be invisible in every objective: for any population
// size and any backend, the batched path returns exactly what the scalar
// decoders return. These tests pin that contract at two levels — the
// flow-shop kernels against their scalar twins, and the Evaluator's
// per-lane objective_batch across every registered problem × population
// size × backend — plus the job shop's two cores: the one
// Giffler–Thompson core every active decoder shares, with its register
// path, and the DowntimeFrontier replay every semi-active objective runs
// (oracle fuzz, golden constants, zero-duration and malformed inputs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ga/genome.h"
#include "src/ga/problem_spec.h"
#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/sched/batch_decode.h"
#include "src/sched/classics.h"
#include "src/sched/dynamic.h"
#include "src/sched/generators.h"
#include "src/sched/schedule.h"
#include "src/sched/taillard.h"

namespace psga::ga {
namespace {

using sched::Criterion;
using sched::Time;

sched::FlowShopInstance taillard_instance() {
  return sched::make_taillard(sched::taillard_20x5().front());
}

std::vector<std::vector<int>> random_permutations(int count, int jobs,
                                                  std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<std::vector<int>> perms(static_cast<std::size_t>(count));
  for (auto& perm : perms) {
    perm.resize(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) perm[static_cast<std::size_t>(j)] = j;
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
  }
  return perms;
}

std::vector<std::span<const int>> as_lanes(
    const std::vector<std::vector<int>>& perms) {
  std::vector<std::span<const int>> lanes;
  lanes.reserve(perms.size());
  for (const auto& p : perms) lanes.emplace_back(p);
  return lanes;
}

// --- flow-shop kernel vs scalar ----------------------------------------------

TEST(FlowShopBatchKernel, MakespanBitIdenticalToScalarForEveryBatchSize) {
  const sched::FlowShopInstance inst = taillard_instance();
  const sched::FlowShopPack pack(inst);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  for (int size : {1, 2, 7, 16, 33}) {
    SCOPED_TRACE(size);
    const auto perms = random_permutations(size, inst.jobs, 11 + size);
    const auto lanes = as_lanes(perms);
    std::vector<Time> got(lanes.size(), -1);
    sched::flow_shop_makespan_batch(inst, pack, lanes, got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(got[l], sched::flow_shop_makespan(inst, lanes[l], scalar))
          << "lane " << l;
    }
  }
}

TEST(FlowShopBatchKernel, ObjectiveMatchesScalarForEveryCriterion) {
  sched::FlowShopInstance inst = taillard_instance();
  // Engage the due-date/weight paths too.
  inst.attrs.due.assign(static_cast<std::size_t>(inst.jobs), 0);
  inst.attrs.weight.assign(static_cast<std::size_t>(inst.jobs), 1.0);
  for (int j = 0; j < inst.jobs; ++j) {
    inst.attrs.due[static_cast<std::size_t>(j)] = 40 * (j + 1);
    inst.attrs.weight[static_cast<std::size_t>(j)] = 1.0 + 0.25 * (j % 4);
  }
  const auto perms = random_permutations(9, inst.jobs, 23);
  const auto lanes = as_lanes(perms);
  const sched::FlowShopPack pack(inst);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  for (Criterion c :
       {Criterion::kMakespan, Criterion::kTotalWeightedCompletion,
        Criterion::kTotalWeightedTardiness, Criterion::kWeightedUnitPenalty,
        Criterion::kMaxTardiness}) {
    SCOPED_TRACE(sched::to_string(c));
    std::vector<double> got(lanes.size(), -1.0);
    sched::flow_shop_objective_batch(inst, pack, lanes, c, got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(got[l], sched::flow_shop_objective(inst, lanes[l], c, scalar))
          << "lane " << l;
    }
  }
}

TEST(FlowShopBatchKernel, ScratchRepacksWhenTheInstanceChanges) {
  const sched::FlowShopInstance a = taillard_instance();
  sched::FlowShopInstance b_mut = a;
  b_mut.proc[0][0] += 17;  // distinct data at a distinct address
  const sched::FlowShopInstance& b = b_mut;
  const auto perms = random_permutations(5, a.jobs, 31);
  const auto lanes = as_lanes(perms);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  std::vector<Time> got(lanes.size());
  // Same scratch, alternating instances: the answer must follow the
  // instance, not stick to whichever was seen first.
  for (const sched::FlowShopInstance* inst : {&a, &b, &a}) {
    sched::flow_shop_makespan_batch(*inst, sched::FlowShopPack(*inst), lanes,
                                    got, batch);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(got[l], sched::flow_shop_makespan(*inst, lanes[l], scalar));
    }
  }

  // Two instances built one after the other at one address, through the
  // problem adapters, one workspace: nothing may be keyed on the
  // instance's address. A pack tagged with it returned the first
  // instance's makespans for the second.
  std::vector<Genome> genomes;
  for (const auto& perm : perms) genomes.push_back(Genome{perm, {}, {}});
  std::vector<double> objectives(genomes.size());
  const sched::FlowShopInstance second = [] {
    sched::FlowShopInstance inst = taillard_instance();
    for (auto& row : inst.proc) {
      for (auto& t : row) t = t % 7 + 1;  // far shorter than the first
    }
    return inst;
  }();
  std::optional<FlowShopProblem> problem(std::in_place, a);
  const auto workspace = problem->make_workspace();
  for (const sched::FlowShopInstance* inst : {&a, &second}) {
    problem.reset();
    problem.emplace(*inst);
    problem->objective_batch(genomes, objectives, *workspace);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(objectives[l], static_cast<double>(sched::flow_shop_makespan(
                                   *inst, lanes[l], scalar)))
          << "lane " << l;
    }
  }
  std::optional<RandomKeyFlowShopProblem> keyed(std::in_place, a);
  const auto key_workspace = keyed->make_workspace();
  std::vector<Genome> keys(perms.size());
  for (std::size_t l = 0; l < perms.size(); ++l) {
    // Key rank = position, so argsort recovers the permutation.
    keys[l].keys.resize(perms[l].size());
    for (std::size_t p = 0; p < perms[l].size(); ++p) {
      keys[l].keys[static_cast<std::size_t>(perms[l][p])] =
          static_cast<double>(p);
    }
  }
  for (const sched::FlowShopInstance* inst : {&a, &second}) {
    keyed.reset();
    keyed.emplace(*inst);
    keyed->objective_batch(keys, objectives, *key_workspace);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(objectives[l], static_cast<double>(sched::flow_shop_makespan(
                                   *inst, lanes[l], scalar)))
          << "random-key lane " << l;
    }
  }
}

TEST(FlowShopBatchKernel, WideInstancesFallBackToExactInt64Lanes) {
  // Durations large enough that completion times overflow int32: the
  // kernel must take the wide (Time) path and still match the scalar
  // decoder exactly.
  sched::FlowShopInstance inst = taillard_instance();
  for (auto& row : inst.proc) {
    for (auto& t : row) t += 1'000'000'000;
  }
  const auto perms = random_permutations(7, inst.jobs, 13);
  const auto lanes = as_lanes(perms);
  const sched::FlowShopPack pack(inst);
  ASSERT_FALSE(pack.narrow);
  sched::FlowShopScratch scalar;
  sched::FlowShopBatchScratch batch;
  std::vector<Time> got(lanes.size());
  sched::flow_shop_makespan_batch(inst, pack, lanes, got, batch);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    EXPECT_EQ(got[l], sched::flow_shop_makespan(inst, lanes[l], scalar));
    EXPECT_GT(got[l], std::numeric_limits<std::int32_t>::max());
  }
}

TEST(FlowShopBatchKernel, ThrowsOnWrongLaneLength) {
  const sched::FlowShopInstance inst = taillard_instance();
  const sched::FlowShopPack pack(inst);
  sched::FlowShopBatchScratch batch;
  auto perms = random_permutations(3, inst.jobs, 7);
  perms[1].pop_back();
  std::vector<Time> out(perms.size());
  EXPECT_THROW(
      sched::flow_shop_makespan_batch(inst, pack, as_lanes(perms), out, batch),
      std::invalid_argument);
  perms[1].push_back(0);
  perms[1].push_back(0);  // now one too long
  EXPECT_THROW(
      sched::flow_shop_makespan_batch(inst, pack, as_lanes(perms), out, batch),
      std::invalid_argument);
}

// --- flow-shop scalar length validation (regression for the small fix) -------

TEST(FlowShopScalar, RejectsPartialPermutations) {
  const sched::FlowShopInstance inst = taillard_instance();
  std::vector<int> perm(static_cast<std::size_t>(inst.jobs));
  for (int j = 0; j < inst.jobs; ++j) perm[static_cast<std::size_t>(j)] = j;
  sched::FlowShopScratch scratch;
  EXPECT_NO_THROW(sched::flow_shop_makespan(inst, perm, scratch));

  std::vector<int> shorter(perm.begin(), perm.end() - 1);
  EXPECT_THROW(sched::flow_shop_makespan(inst, shorter),
               std::invalid_argument);
  EXPECT_THROW(sched::flow_shop_makespan(inst, shorter, scratch),
               std::invalid_argument);
  EXPECT_THROW(sched::flow_shop_completion_times(inst, shorter),
               std::invalid_argument);
  EXPECT_THROW(sched::flow_shop_schedule(inst, shorter),
               std::invalid_argument);

  std::vector<int> longer = perm;
  longer.push_back(0);
  EXPECT_THROW(sched::flow_shop_makespan(inst, longer, scratch),
               std::invalid_argument);

  // The constructive-heuristic escape hatch still accepts prefixes...
  EXPECT_NO_THROW(sched::flow_shop_makespan_prefix(inst, shorter, scratch));
  // ...and a full permutation through it matches the strict entry point.
  EXPECT_EQ(sched::flow_shop_makespan_prefix(inst, perm, scratch),
            sched::flow_shop_makespan(inst, perm));
  // ...but still rejects overlong sequences.
  EXPECT_THROW(sched::flow_shop_makespan_prefix(inst, longer, scratch),
               std::invalid_argument);
}

// --- JobShopProblem vs the reference decoders --------------------------------

std::vector<std::vector<int>> random_op_sequences(
    const sched::JobShopInstance& inst, int count, std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<std::vector<int>> seqs(static_cast<std::size_t>(count));
  for (auto& s : seqs) s = sched::random_operation_sequence(inst, rng);
  return seqs;
}

Genome genome_of(std::vector<int> seq) {
  Genome genome;
  genome.seq = std::move(seq);
  return genome;
}

/// `problem`'s objective_batch over `seqs`, `chunk` genomes per call on
/// one workspace, the way Evaluator lanes hand it their slices.
std::vector<double> batch_objectives(const JobShopProblem& problem,
                                     const std::vector<std::vector<int>>& seqs,
                                     std::size_t chunk) {
  std::vector<Genome> genomes;
  for (const auto& seq : seqs) genomes.push_back(genome_of(seq));
  std::vector<double> out(genomes.size(), -1.0);
  const auto workspace = problem.make_workspace();
  for (std::size_t at = 0; at < genomes.size(); at += chunk) {
    const std::size_t size = std::min(chunk, genomes.size() - at);
    problem.objective_batch(std::span(genomes).subspan(at, size),
                            std::span(out).subspan(at, size), *workspace);
  }
  return out;
}

TEST(JobShopBatchKernel, SemiActiveMatchesScalarDecoder) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  const JobShopProblem problem(inst);
  for (int size : {1, 2, 7, 16, 33}) {
    SCOPED_TRACE(size);
    const auto seqs = random_op_sequences(inst, size, 41 + size);
    const std::vector<double> got =
        batch_objectives(problem, seqs, seqs.size());
    for (std::size_t l = 0; l < seqs.size(); ++l) {
      EXPECT_EQ(got[l], sched::job_shop_objective(
                            inst, sched::decode_operation_based(inst, seqs[l]),
                            Criterion::kMakespan))
          << "lane " << l;
    }
  }
}

TEST(JobShopBatchKernel, ActiveMatchesGifflerThompsonSequence) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  const JobShopProblem problem(inst, JobShopProblem::Decoder::kGifflerThompson);
  const auto seqs = random_op_sequences(inst, 33, 53);
  const std::vector<double> got = batch_objectives(problem, seqs, seqs.size());
  for (std::size_t l = 0; l < seqs.size(); ++l) {
    EXPECT_EQ(got[l], sched::job_shop_objective(
                          inst, sched::giffler_thompson_sequence(inst, seqs[l]),
                          Criterion::kMakespan))
        << "lane " << l;
  }
}

TEST(JobShopBatchKernel, ThrowsOnWrongSequenceLength) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  auto seqs = random_op_sequences(inst, 2, 3);
  seqs[1].pop_back();
  for (auto decoder : {JobShopProblem::Decoder::kOperationBased,
                       JobShopProblem::Decoder::kGifflerThompson}) {
    const JobShopProblem problem(inst, decoder);
    try {
      batch_objectives(problem, seqs, seqs.size());
      ADD_FAILURE() << "a 35-gene ft06 sequence was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "job-shop operation sequence length 35 != expected 36"),
                std::string::npos)
          << e.what();
    }
    const auto workspace = problem.make_workspace();
    EXPECT_THROW(problem.objective(genome_of(seqs[1]), *workspace),
                 std::invalid_argument);
  }
}

// --- the one Giffler–Thompson core ------------------------------------------
//
// Every scalar active decoder (the sequence, rule and rules-per-step
// entry points, and giffler_thompson_objective, the batch entry's scalar
// path) runs one core. The
// tests below pin it three ways: against a test-only oracle (the
// two-scan loop the decoders ran before the core was shared), against
// golden constants recorded from that older code, and on the inputs the
// older code crashed on or read out of bounds for.

const Criterion kAllCriteria[] = {
    Criterion::kMakespan, Criterion::kTotalWeightedCompletion,
    Criterion::kTotalWeightedTardiness, Criterion::kWeightedUnitPenalty,
    Criterion::kMaxTardiness};

const sched::PriorityRule kAllRules[] = {
    sched::PriorityRule::kSpt, sched::PriorityRule::kLpt,
    sched::PriorityRule::kMostWorkRemaining, sched::PriorityRule::kFcfs,
    sched::PriorityRule::kRandom};

/// The oracle: per-job gene position lists, a conflict vector and a
/// branch on every comparison. `pick(conflict, next_op, work_left)`
/// chooses the winner. Positive durations only: when the operation that
/// sets the earliest completion takes no time, its conflict set can be
/// empty.
template <typename Pick>
sched::Schedule oracle_giffler_thompson(const sched::JobShopInstance& inst,
                                        Pick&& pick) {
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  sched::Schedule schedule;
  std::vector<int> next_op(jobs, 0);
  std::vector<Time> job_free(jobs);
  std::vector<Time> work_left(jobs, 0);
  std::vector<Time> machine_free(static_cast<std::size_t>(inst.machines), 0);
  for (int j = 0; j < inst.jobs; ++j) {
    job_free[static_cast<std::size_t>(j)] = inst.attrs.release_of(j);
    for (const auto& op : inst.ops[static_cast<std::size_t>(j)]) {
      work_left[static_cast<std::size_t>(j)] += op.duration;
    }
  }
  std::vector<int> conflict;
  for (int scheduled = 0; scheduled < inst.total_ops(); ++scheduled) {
    Time best = std::numeric_limits<Time>::max();
    int conflict_machine = -1;
    for (int j = 0; j < inst.jobs; ++j) {
      const int k = next_op[static_cast<std::size_t>(j)];
      if (k >= inst.ops_of(j)) continue;
      const auto& op = inst.op(j, k);
      const Time start =
          std::max(job_free[static_cast<std::size_t>(j)],
                   machine_free[static_cast<std::size_t>(op.machine)]);
      if (start + op.duration < best) {
        best = start + op.duration;
        conflict_machine = op.machine;
      }
    }
    conflict.clear();
    for (int j = 0; j < inst.jobs; ++j) {
      const int k = next_op[static_cast<std::size_t>(j)];
      if (k >= inst.ops_of(j)) continue;
      const auto& op = inst.op(j, k);
      if (op.machine != conflict_machine) continue;
      const Time start =
          std::max(job_free[static_cast<std::size_t>(j)],
                   machine_free[static_cast<std::size_t>(op.machine)]);
      if (start < best) conflict.push_back(j);
    }
    const int winner = pick(conflict, next_op, work_left);
    const int k = next_op[static_cast<std::size_t>(winner)]++;
    const auto& op = inst.op(winner, k);
    const Time start =
        std::max(job_free[static_cast<std::size_t>(winner)],
                 machine_free[static_cast<std::size_t>(op.machine)]);
    const Time end = start + op.duration;
    schedule.ops.push_back(
        sched::ScheduledOp{winner, k, op.machine, start, end});
    job_free[static_cast<std::size_t>(winner)] = end;
    machine_free[static_cast<std::size_t>(op.machine)] = end;
    work_left[static_cast<std::size_t>(winner)] -= op.duration;
  }
  return schedule;
}

/// Oracle sequence picker: the conflict job whose next gene is earliest.
sched::Schedule oracle_sequence(const sched::JobShopInstance& inst,
                                std::span<const int> seq) {
  std::vector<std::vector<int>> positions(static_cast<std::size_t>(inst.jobs));
  for (int pos = 0; pos < static_cast<int>(seq.size()); ++pos) {
    positions[static_cast<std::size_t>(seq[static_cast<std::size_t>(pos)])]
        .push_back(pos);
  }
  return oracle_giffler_thompson(
      inst, [&](const std::vector<int>& jobs, const std::vector<int>& next_op,
                const std::vector<Time>&) {
        int best = jobs.front();
        int best_pos = std::numeric_limits<int>::max();
        for (int j : jobs) {
          const int pos = positions[static_cast<std::size_t>(j)][static_cast<
              std::size_t>(next_op[static_cast<std::size_t>(j)])];
          if (pos < best_pos) {
            best_pos = pos;
            best = j;
          }
        }
        return best;
      });
}

/// Oracle rule picker; `rule_at(step)` names the step-th conflict's rule.
template <typename RuleAt>
sched::Schedule oracle_rules(const sched::JobShopInstance& inst,
                             RuleAt&& rule_at, par::Rng& rng) {
  int step = 0;
  return oracle_giffler_thompson(
      inst, [&](const std::vector<int>& jobs, const std::vector<int>& next_op,
                const std::vector<Time>& work_left) {
        const auto duration_of = [&](int j) {
          return inst.op(j, next_op[static_cast<std::size_t>(j)]).duration;
        };
        const auto work_of = [&](int j) {
          return work_left[static_cast<std::size_t>(j)];
        };
        int best = jobs.front();
        switch (rule_at(step++)) {
          case sched::PriorityRule::kSpt:
            for (int j : jobs) {
              if (duration_of(j) < duration_of(best)) best = j;
            }
            break;
          case sched::PriorityRule::kLpt:
            for (int j : jobs) {
              if (duration_of(j) > duration_of(best)) best = j;
            }
            break;
          case sched::PriorityRule::kMostWorkRemaining:
            for (int j : jobs) {
              if (work_of(j) > work_of(best)) best = j;
            }
            break;
          case sched::PriorityRule::kFcfs:
            break;
          case sched::PriorityRule::kRandom:
            best = jobs[static_cast<std::size_t>(rng.below(jobs.size()))];
            break;
        }
        return best;
      });
}

bool same_ops(const sched::Schedule& a, const sched::Schedule& b) {
  const auto same = [](const sched::ScheduledOp& x,
                       const sched::ScheduledOp& y) {
    return x.job == y.job && x.index == y.index && x.machine == y.machine &&
           x.start == y.start && x.end == y.end;
  };
  return std::equal(a.ops.begin(), a.ops.end(), b.ops.begin(), b.ops.end(),
                    same);
}

/// Release dates, due dates and integer weights on every job.
void add_job_attributes(sched::JobShopInstance& inst, std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<Time> work(static_cast<std::size_t>(inst.jobs), 0);
  inst.attrs.release.assign(static_cast<std::size_t>(inst.jobs), 0);
  for (int j = 0; j < inst.jobs; ++j) {
    for (const auto& op : inst.ops[static_cast<std::size_t>(j)]) {
      work[static_cast<std::size_t>(j)] += op.duration;
    }
    inst.attrs.release[static_cast<std::size_t>(j)] = rng.range(0, 30);
  }
  sched::assign_due_dates(inst.attrs, work, 1.5, 5, seed + 1);
}

/// The fuzz corpus: every classic instance, J = 1 x M = 1, a 70 x 3 shop
/// (more jobs than any 64-bit key can pack), and 400 random shops with
/// J in [1, 20], M in [1, 10] and durations 1..3, 1..10 or 1..99 (narrow
/// ranges force ties), half of them with release dates, due dates and
/// weights.
std::vector<sched::JobShopInstance> fuzz_instances() {
  std::vector<sched::JobShopInstance> instances;
  for (const auto* classic : sched::classic_instances()) {
    instances.push_back(classic->instance);
  }
  instances.push_back(sched::random_job_shop(1, 1, 5));
  instances.push_back(sched::random_job_shop(70, 3, 6));
  add_job_attributes(instances.back(), 7);
  par::Rng rng(2024);
  const Time highs[] = {3, 10, 99};
  for (int i = 0; i < 400; ++i) {
    const int jobs = rng.range(1, 20);
    const int machines = rng.range(1, 10);
    instances.push_back(sched::random_job_shop(jobs, machines, 100 + i, 1,
                                               highs[i % 3]));
    if (i % 2 == 1) add_job_attributes(instances.back(), 500 + i);
  }
  return instances;
}

TEST(GifflerThompsonCore, MatchesTheOracleOnEveryEntryPoint) {
  sched::JobShopScratch scratch;  // shared by every instance
  int pairs = 0;
  int mismatches = 0;
  std::uint64_t instance_seed = 0;
  for (const sched::JobShopInstance& inst : fuzz_instances()) {
    SCOPED_TRACE(std::to_string(inst.jobs) + "x" +
                 std::to_string(inst.machines) + " #" +
                 std::to_string(instance_seed));
    const auto seqs = random_op_sequences(inst, 37, 900 + instance_seed++);
    const auto lanes = as_lanes(seqs);
    std::vector<sched::Schedule> expect;
    for (const auto& lane : lanes) {
      expect.push_back(oracle_sequence(inst, lane));
      mismatches +=
          same_ops(sched::giffler_thompson_sequence(inst, lane), expect.back())
              ? 0
              : 1;
      ++pairs;
    }
    for (Criterion c : kAllCriteria) {
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        mismatches += sched::giffler_thompson_objective(inst, lanes[l], c,
                                                        scratch) ==
                              sched::job_shop_objective(inst, expect[l], c)
                          ? 0
                          : 1;
      }
    }
    for (sched::PriorityRule rule : kAllRules) {
      par::Rng core_rng(instance_seed);
      par::Rng oracle_rng(instance_seed);
      mismatches +=
          same_ops(sched::giffler_thompson(inst, rule, core_rng),
                   oracle_rules(inst, [rule](int) { return rule; },
                                oracle_rng))
              ? 0
              : 1;
    }
    par::Rng rules_rng(instance_seed);
    std::vector<int> rule_per_step(static_cast<std::size_t>(inst.total_ops()));
    for (int& r : rule_per_step) r = rules_rng.range(-5, 9);
    mismatches +=
        same_ops(sched::giffler_thompson_rules(inst, rule_per_step),
                 oracle_rules(
                     inst,
                     [&](int step) {
                       const int raw = rule_per_step[static_cast<std::size_t>(
                           step)];
                       return static_cast<sched::PriorityRule>(
                           ((raw % sched::kDispatchRuleCount) +
                            sched::kDispatchRuleCount) %
                           sched::kDispatchRuleCount);
                     },
                     rules_rng))
            ? 0
            : 1;
    ASSERT_EQ(mismatches, 0);
  }
  EXPECT_GE(pairs, 10000);
}

/// The 2x2 shop "2 2 / 0 3 1 0 / 1 0 0 2" in .jsp form: both jobs have a
/// zero-duration operation on machine 1.
sched::JobShopInstance zero_duration_2x2() {
  sched::JobShopInstance inst;
  inst.jobs = 2;
  inst.machines = 2;
  inst.ops = {{{0, 3}, {1, 0}}, {{1, 0}, {0, 2}}};
  return inst;
}

/// ft06 with every third operation (in flat route order) taking no time.
sched::JobShopInstance ft06_with_zero_durations() {
  sched::JobShopInstance inst = sched::ft06().instance;
  int flat = 0;
  for (auto& route : inst.ops) {
    for (auto& op : route) {
      if (flat++ % 3 == 0) op.duration = 0;
    }
  }
  return inst;
}

TEST(GifflerThompsonCore, ZeroDurationOperationsDecodeOnEveryEntryPoint) {
  for (const sched::JobShopInstance& inst :
       {zero_duration_2x2(), ft06_with_zero_durations()}) {
    SCOPED_TRACE(inst.jobs);
    const auto spec = inst.validation_spec();
    const auto total = static_cast<std::size_t>(inst.total_ops());
    const auto check = [&](const sched::Schedule& s, const char* what) {
      EXPECT_EQ(s.ops.size(), total) << what;
      const auto error = sched::validate(s, spec);
      EXPECT_FALSE(error.has_value()) << what << ": " << error.value_or("");
    };
    const auto seqs = random_op_sequences(inst, 16, 77);
    for (Criterion c : kAllCriteria) {
      const std::vector<double> got = batch_objectives(
          JobShopProblem(inst, JobShopProblem::Decoder::kGifflerThompson, c),
          seqs, seqs.size());
      for (std::size_t l = 0; l < seqs.size(); ++l) {
        const sched::Schedule s =
            sched::giffler_thompson_sequence(inst, seqs[l]);
        check(s, "giffler_thompson_sequence");
        EXPECT_EQ(got[l], sched::job_shop_objective(inst, s, c)) << l;
      }
    }
    for (sched::PriorityRule rule : kAllRules) {
      par::Rng rng(3);
      check(sched::giffler_thompson(inst, rule, rng), "giffler_thompson");
    }
    par::Rng rng(4);
    std::vector<int> rule_per_step(total);
    for (int& r : rule_per_step) r = rng.range(0, 3);
    check(sched::giffler_thompson_rules(inst, rule_per_step),
          "giffler_thompson_rules");
  }
}

TEST(GifflerThompsonCore, RejectsMalformedSequences) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  const std::vector<int> good = random_op_sequences(inst, 1, 5).front();
  std::vector<int> swapped = good;  // one job one gene short, one too many
  swapped[4] = (swapped[4] + 1) % inst.jobs;
  std::vector<int> out_of_range = good;
  out_of_range[9] = inst.jobs;
  sched::JobShopScratch scratch;
  const JobShopProblem problem(inst, JobShopProblem::Decoder::kGifflerThompson);
  for (const std::vector<int>& bad : {swapped, out_of_range}) {
    EXPECT_THROW(sched::giffler_thompson_sequence(inst, bad),
                 std::invalid_argument);
    EXPECT_THROW(sched::giffler_thompson_objective(inst, bad,
                                                   Criterion::kMakespan,
                                                   scratch),
                 std::invalid_argument);
    EXPECT_THROW(batch_objectives(problem, {good, bad}, 2),
                 std::invalid_argument);
  }
  // The scratch stays usable after a rejected sequence.
  EXPECT_EQ(sched::giffler_thompson_objective(inst, good, Criterion::kMakespan,
                                              scratch),
            sched::giffler_thompson_sequence(inst, good).makespan());
}

// Golden constants, recorded from the two-scan decoders the core
// replaced and never re-recorded: a change here is a behaviour change.

/// FNV-1a over every ScheduledOp field, in order.
std::uint64_t schedule_hash(const sched::Schedule& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  };
  for (const auto& op : s.ops) {
    mix(op.job);
    mix(op.index);
    mix(op.machine);
    mix(op.start);
    mix(op.end);
  }
  return h;
}

/// ft10, plus a 15 x 8 shop with release dates, due dates and weights.
std::vector<sched::JobShopInstance> golden_instances() {
  std::vector<sched::JobShopInstance> instances = {sched::ft10().instance,
                                                   sched::random_job_shop(
                                                       15, 8, 41, 1, 10)};
  add_job_attributes(instances.back(), 43);
  return instances;
}

TEST(GifflerThompsonGolden, ScalarEntryPointsArePinned) {
  // Per instance: the sequence decoder over 8 sequences, each
  // PriorityRule (kRandom seeded), then the rules-per-step decoder.
  const std::uint64_t expect[2][3] = {
      {16334255221120503490ULL, 17011599289515092480ULL,
       13091454840871497358ULL},
      {1410799953888316800ULL, 8750742104325429250ULL,
       9733732400555526368ULL},
  };
  const auto instances = golden_instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const sched::JobShopInstance& inst = instances[i];
    std::uint64_t sequence = 0;
    for (const auto& seq : random_op_sequences(inst, 8, 61)) {
      sequence = sequence * 31 +
                 schedule_hash(sched::giffler_thompson_sequence(inst, seq));
    }
    std::uint64_t rules = 0;
    for (sched::PriorityRule rule : kAllRules) {
      par::Rng rng(62);
      rules = rules * 31 +
              schedule_hash(sched::giffler_thompson(inst, rule, rng));
    }
    par::Rng rng(63);
    std::vector<int> rule_per_step(static_cast<std::size_t>(inst.total_ops()));
    for (int& r : rule_per_step) r = rng.range(0, 3);
    const std::uint64_t per_step =
        schedule_hash(sched::giffler_thompson_rules(inst, rule_per_step));
    EXPECT_EQ(sequence, expect[i][0]) << "instance " << i;
    EXPECT_EQ(rules, expect[i][1]) << "instance " << i;
    EXPECT_EQ(per_step, expect[i][2]) << "instance " << i;
  }
}

TEST(GifflerThompsonGolden, BatchObjectivesArePinned) {
  // Sum over 16 lanes of the 15 x 8 golden shop, one per criterion.
  const double expect[] = {2310, 67366, 21325, 544, 1118};
  const sched::JobShopInstance inst = golden_instances().back();
  const auto seqs = random_op_sequences(inst, 16, 71);
  for (std::size_t c = 0; c < std::size(kAllCriteria); ++c) {
    const std::vector<double> got = batch_objectives(
        JobShopProblem(inst, JobShopProblem::Decoder::kGifflerThompson,
                       kAllCriteria[c]),
        seqs, seqs.size());
    double sum = 0;
    for (double v : got) sum += v;
    EXPECT_EQ(sum, expect[c]) << sched::to_string(kAllCriteria[c]);
  }
}

TEST(GifflerThompsonGolden, Ft10ActiveRunIsPinned) {
  const RunResult result =
      Solver::build(RunSpec::parse("problem=jobshop instance=ft10 "
                                   "decoder=active engine=simple pop=256 "
                                   "eval=serial seed=1"))
          .run(StopCondition::generations(20));
  EXPECT_EQ(result.best_objective, 1020.0);
  EXPECT_EQ(genome_hash(result.best), 12493598725303043655ULL);
  EXPECT_EQ(result.evaluations, 5376);
}

// --- the one semi-active core ------------------------------------------------
//
// JobShopProblem evaluates every semi-active genome by replaying a
// window-free sched::DowntimeFrontier, the loop session replans run too.
// decode_operation_based keeps its own loop as the reference.

/// Three jobs on two machines; job 1 has no operations and a positive
/// release date, so reporting it at its release instead of 0 shows.
sched::JobShopInstance empty_route_shop() {
  sched::JobShopInstance inst;
  inst.jobs = 3;
  inst.machines = 2;
  inst.ops = {{{0, 4}, {1, 2}}, {}, {{1, 3}, {0, 5}}};
  inst.attrs.release = {2, 9, 0};
  inst.attrs.due = {5, 1, 6};
  inst.attrs.weight = {2.0, 3.0, 1.0};
  return inst;
}

TEST(SemiActiveCore, MatchesTheReferenceOnEveryEntryPoint) {
  std::vector<sched::JobShopInstance> instances = fuzz_instances();
  instances.push_back(zero_duration_2x2());
  instances.push_back(ft06_with_zero_durations());
  instances.push_back(empty_route_shop());
  int mismatches = 0;
  std::uint64_t instance_seed = 0;
  for (const sched::JobShopInstance& inst : instances) {
    SCOPED_TRACE(std::to_string(inst.jobs) + "x" +
                 std::to_string(inst.machines) + " #" +
                 std::to_string(instance_seed));
    const auto seqs = random_op_sequences(inst, 37, 1300 + instance_seed++);
    std::vector<sched::Schedule> reference;
    for (const auto& seq : seqs) {
      reference.push_back(sched::decode_operation_based(inst, seq));
      mismatches +=
          same_ops(sched::decode_with_downtime(inst, seq, {}), reference.back())
              ? 0
              : 1;
    }
    for (Criterion c : kAllCriteria) {
      const JobShopProblem problem(
          inst, JobShopProblem::Decoder::kOperationBased, c);
      std::vector<double> expect;
      for (const sched::Schedule& schedule : reference) {
        expect.push_back(sched::job_shop_objective(inst, schedule, c));
      }
      const auto workspace = problem.make_workspace();
      for (std::size_t l = 0; l < seqs.size(); ++l) {
        mismatches +=
            problem.objective(genome_of(seqs[l]), *workspace) == expect[l] ? 0
                                                                           : 1;
      }
      for (std::size_t chunk : {1, 7, 16, 33}) {
        mismatches += batch_objectives(problem, seqs, chunk) == expect ? 0 : 1;
      }
    }
    ASSERT_EQ(mismatches, 0);
  }
}

TEST(SemiActiveGolden, ObjectivesArePinned) {
  // Sum over 16 sequences of the 15 x 8 golden shop, one per criterion,
  // recorded from the semi-active batch lanes the frontier replay
  // replaced and never re-recorded: a change here is a behaviour change.
  const double expect[] = {3238, 98879, 52767, 558, 2085};
  const sched::JobShopInstance inst = golden_instances().back();
  const auto seqs = random_op_sequences(inst, 16, 71);
  for (std::size_t c = 0; c < std::size(kAllCriteria); ++c) {
    const std::vector<double> got = batch_objectives(
        JobShopProblem(inst, JobShopProblem::Decoder::kOperationBased,
                       kAllCriteria[c]),
        seqs, seqs.size());
    double sum = 0;
    for (double v : got) sum += v;
    EXPECT_EQ(sum, expect[c]) << sched::to_string(kAllCriteria[c]);
  }
}

// --- the Giffler–Thompson register path ------------------------------------
//
// JobShopProblem's active decoder hands each slice to
// sched::giffler_thompson_objective_batch, which decodes four genomes in
// lockstep on a 16-lane int32 register frontier when the instance fits and
// the CPU has AVX-512F and BMI, and runs the scalar core otherwise. Every
// test below runs on either path; the pins say which one each shop takes.

bool cpu_has_register_path() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("bmi");
#else
  return false;
#endif
}

/// One machine, three jobs of two operations, job 0 released at 7 and
/// durations summing to bound - 7: a sequence that puts job 0 first ends
/// exactly at `bound`.
sched::JobShopInstance one_machine_ending_at(Time bound) {
  sched::JobShopInstance inst;
  inst.jobs = 3;
  inst.machines = 1;
  const Time work = bound - 7;
  const Time each = work / 6;
  inst.ops = {{{0, each}, {0, each}},
              {{0, each}, {0, each}},
              {{0, each}, {0, work - 5 * each}}};
  inst.attrs.release = {7, 0, 0};
  return inst;
}

/// Routes of 0 to 5 operations that revisit machines, with a zero
/// duration and release dates.
sched::JobShopInstance uneven_routes_shop() {
  sched::JobShopInstance inst;
  inst.jobs = 5;
  inst.machines = 3;
  inst.ops = {{{0, 4}, {0, 2}, {1, 3}},
              {{2, 5}},
              {{1, 1}, {2, 2}, {1, 3}, {0, 1}, {2, 2}},
              {},
              {{0, 0}, {0, 7}}};
  inst.attrs.release = {0, 3, 0, 4, 1};
  return inst;
}

struct RegisterCase {
  std::string name;
  sched::JobShopInstance inst;
  bool fits;  ///< the register frontier holds it
};

std::vector<RegisterCase> register_edge_cases() {
  const auto with_attributes = [](sched::JobShopInstance inst,
                                  std::uint64_t seed) {
    add_job_attributes(inst, seed);
    return inst;
  };
  constexpr Time kInt32Max = std::numeric_limits<std::int32_t>::max();
  return {
      {"16 jobs", with_attributes(sched::random_job_shop(16, 10, 11), 12),
       true},
      {"16 jobs x 15 machines",
       with_attributes(sched::random_job_shop(16, 15, 13), 14), true},
      {"15 machines, zero durations", sched::random_job_shop(9, 15, 15, 0, 4),
       true},
      {"2x2 zero durations", zero_duration_2x2(), true},
      {"ft06 zero durations", ft06_with_zero_durations(), true},
      {"a job without operations", empty_route_shop(), true},
      {"uneven routes", uneven_routes_shop(), true},
      {"ends at INT32_MAX - 1", one_machine_ending_at(kInt32Max - 1), true},
      {"ends at INT32_MAX", one_machine_ending_at(kInt32Max), false},
      {"17 jobs", sched::random_job_shop(17, 5, 16), false},
      {"16 machines", sched::random_job_shop(6, 16, 17), false},
  };
}

/// Mismatches between JobShopProblem::objective_batch, over batches of 1
/// to 9 genomes on one workspace, and job_shop_objective of
/// giffler_thompson_sequence, for every criterion.
int register_batch_mismatches(const sched::JobShopInstance& inst,
                              std::uint64_t seed) {
  const auto seqs = random_op_sequences(inst, 45, seed);
  std::vector<sched::Schedule> expect;
  std::vector<Genome> genomes;
  for (const auto& seq : seqs) {
    expect.push_back(sched::giffler_thompson_sequence(inst, seq));
    genomes.push_back(genome_of(seq));
  }
  int mismatches = 0;
  for (Criterion c : kAllCriteria) {
    const JobShopProblem problem(
        inst, JobShopProblem::Decoder::kGifflerThompson, c);
    const auto workspace = problem.make_workspace();
    std::vector<double> got(genomes.size(), -1.0);
    for (std::size_t at = 0, size = 1; size <= 9; at += size, ++size) {
      problem.objective_batch(std::span(genomes).subspan(at, size),
                              std::span(got).subspan(at, size), *workspace);
    }
    for (std::size_t l = 0; l < genomes.size(); ++l) {
      mismatches +=
          got[l] == sched::job_shop_objective(inst, expect[l], c) ? 0 : 1;
    }
  }
  return mismatches;
}

TEST(GifflerThompsonRegisters, EdgeShopsMatchTheScalarEntryInBatchesOf1To9) {
  const bool cpu = cpu_has_register_path();
  std::uint64_t seed = 3100;
  for (const RegisterCase& c : register_edge_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(JobShopProblem(c.inst, JobShopProblem::Decoder::kGifflerThompson)
                  .decodes_in_registers(),
              cpu && c.fits);
    EXPECT_EQ(register_batch_mismatches(c.inst, seed++), 0);
  }
}

TEST(GifflerThompsonRegisters, FuzzShopsMatchTheScalarEntryInBatchesOf1To9) {
  std::uint64_t seed = 3200;
  for (const sched::JobShopInstance& inst : fuzz_instances()) {
    SCOPED_TRACE(std::to_string(inst.jobs) + "x" +
                 std::to_string(inst.machines) + " #" + std::to_string(seed));
    ASSERT_EQ(register_batch_mismatches(inst, seed++), 0);
  }
}

TEST(GifflerThompsonRegisters, MalformedThirdGenomeThrowsTheScalarError) {
  const sched::JobShopInstance& inst = sched::ft06().instance;
  const auto seqs = random_op_sequences(inst, 4, 5);
  std::vector<int> swapped = seqs[2];  // one job a gene short, one too many
  swapped[4] = (swapped[4] + 1) % inst.jobs;
  std::vector<int> out_of_range = seqs[2];
  out_of_range[9] = inst.jobs;
  std::vector<int> short_one = seqs[2];
  short_one.pop_back();
  sched::JobShopScratch scratch;
  std::vector<double> expect;
  std::vector<Genome> good;
  for (const auto& seq : seqs) {
    expect.push_back(sched::giffler_thompson_objective(
        inst, seq, Criterion::kMakespan, scratch));
    good.push_back(genome_of(seq));
  }
  const JobShopProblem problem(inst, JobShopProblem::Decoder::kGifflerThompson);
  const auto workspace = problem.make_workspace();
  for (const std::vector<int>& bad : {swapped, out_of_range, short_one}) {
    std::string scalar_error;
    try {
      sched::giffler_thompson_objective(inst, bad, Criterion::kMakespan,
                                        scratch);
    } catch (const std::invalid_argument& e) {
      scalar_error = e.what();
    }
    ASSERT_FALSE(scalar_error.empty());
    SCOPED_TRACE(scalar_error);
    std::vector<Genome> group = good;
    group[2] = genome_of(bad);
    std::vector<double> got(group.size(), -1.0);
    try {
      problem.objective_batch(group, got, *workspace);
      ADD_FAILURE() << "the malformed third genome was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), scalar_error);
    }
    // The same workspace decodes the next group.
    problem.objective_batch(good, got, *workspace);
    EXPECT_EQ(got, expect);
  }
}

TEST(GifflerThompsonRegisters, Ft10DecodesInRegistersWhenTheCpuReportsAvx512) {
  // A silent fallback to the scalar core would keep every objective and
  // lose the speed; this pin makes it fail instead.
  const sched::JobShopInstance& inst = sched::ft10().instance;
  EXPECT_EQ(JobShopProblem(inst, JobShopProblem::Decoder::kGifflerThompson)
                .decodes_in_registers(),
            cpu_has_register_path());
  EXPECT_FALSE(JobShopProblem(inst).decodes_in_registers());
}

// --- batch-vs-scalar equivalence across the whole registry -------------------

// Every registered problem (plus the alternate encodings/decoders that
// select different objective_batch code paths). Fuzzed genomes,
// population sizes {1,2,7,16,33}, serial and pools of 2, 3 and 5 lanes:
// the batched path must reproduce the scalar per-genome objective bit
// for bit. (The double models run the same arithmetic in the same order
// on both paths, so exact equality is the right bar there too.)
const char* kProblemSpecs[] = {
    "problem=flowshop instance=gen:jobs=12,machines=5,seed=3",
    "problem=flowshop instance=gen:jobs=12,machines=5,seed=3 "
    "criterion=total-flow",
    "problem=flowshop encoding=random-key instance=gen:jobs=12,machines=5,"
    "seed=3",
    "problem=jobshop instance=ft06",
    "problem=jobshop decoder=active instance=ft06",
    "problem=jobshop encoding=rules instance=ft06",
    "problem=openshop decoder=lpt-machine instance=gen:jobs=4,machines=3,"
    "seed=5",
    "problem=hybrid-flowshop instance=gen:jobs=5,stages=2x2,seed=5",
    "problem=flexible-jobshop instance=gen:jobs=4,machines=3,ops=3,"
    "eligible=2,seed=5",
    "problem=lot-streaming instance=gen:jobs=3,stages=2x2,sublots=2,seed=5",
    "problem=fuzzy-flowshop instance=gen:jobs=5,machines=3,seed=5 spread=0.25",
    "problem=stochastic-jobshop instance=gen:jobs=4,machines=3,seed=5 "
    "scenarios=3 instance-seed=9",
    "problem=energy-flowshop instance=gen:jobs=5,machines=3,seed=5 "
    "w-makespan=0.5 w-energy=0.02 w-peak=1.5 instance-seed=4",
    "problem=dynamic-jobshop instance=gen:jobs=4,machines=3,seed=5 "
    "downtimes=2 instance-seed=3",
};

class BatchScalarEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchScalarEquivalence, ChunkedBatchesMatchScalarOnEveryBackend) {
  const ProblemPtr problem = ProblemSpec::parse(GetParam()).build();
  par::Rng rng(97);
  std::vector<Genome> genomes;
  for (int i = 0; i < 33; ++i) genomes.push_back(problem->random_genome(rng));

  std::vector<double> expect(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    expect[i] = problem->objective(genomes[i]);
  }

  // Every lane hands its whole slice to objective_batch, so population
  // sizes on each side of the kernels' 8-genome block, split over 1, 2,
  // 3 and 5 lanes, cover full blocks, padded tail blocks, one-genome
  // slices and lanes left empty.
  std::vector<Evaluator> evaluators;
  evaluators.emplace_back(problem, EvalBackend::kSerial);
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  for (int lanes : {2, 3, 5}) {
    pools.push_back(std::make_unique<par::ThreadPool>(lanes));
    evaluators.emplace_back(problem, EvalBackend::kThreadPool,
                            pools.back().get());
  }
  for (Evaluator& evaluator : evaluators) {
    for (std::size_t n : {1, 2, 7, 16, 33}) {
      SCOPED_TRACE("lanes=" + std::to_string(evaluator.lanes()) +
                   " n=" + std::to_string(n));
      const std::span<const Genome> slice(genomes.data(), n);
      std::vector<double> got(n, -1.0);
      evaluator.evaluate(slice, got);
      EXPECT_EQ(got, std::vector<double>(expect.begin(), expect.begin() + n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryProblems, BatchScalarEquivalence,
                         ::testing::ValuesIn(kProblemSpecs));

}  // namespace
}  // namespace psga::ga
