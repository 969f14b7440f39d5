#include "src/sched/dynamic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>

#include "src/ga/evaluator.h"
#include "src/ga/problems.h"
#include "src/ga/simple_ga.h"
#include "src/par/rng.h"
#include "src/sched/classics.h"
#include "src/sched/generators.h"

namespace psga::sched {
namespace {

// --- test-only oracle ---------------------------------------------------------
// The downtime decode this repository used before the one-pass frontier
// core: rescan every window of the machine until nothing moves, on the
// whole concatenated sequence.

Time oracle_next_feasible_start(int machine, Time earliest, Time duration,
                                std::span<const Downtime> downtimes) {
  Time start = earliest;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const Downtime& w : downtimes) {
      if (w.machine != machine) continue;
      if (start < w.end && start + duration > w.start) {
        start = w.end;  // push past this window and re-check all
        moved = true;
      }
    }
  }
  return start;
}

Schedule oracle_decode(const JobShopInstance& inst,
                       std::span<const int> op_sequence,
                       std::span<const Downtime> downtimes) {
  Schedule schedule;
  std::vector<int> next_op(static_cast<std::size_t>(inst.jobs), 0);
  std::vector<Time> job_free(static_cast<std::size_t>(inst.jobs));
  for (int j = 0; j < inst.jobs; ++j) {
    job_free[static_cast<std::size_t>(j)] = inst.attrs.release_of(j);
  }
  std::vector<Time> machine_free(static_cast<std::size_t>(inst.machines), 0);
  for (int job : op_sequence) {
    const int index = next_op[static_cast<std::size_t>(job)]++;
    const JsOperation& op = inst.op(job, index);
    const Time earliest =
        std::max(job_free[static_cast<std::size_t>(job)],
                 machine_free[static_cast<std::size_t>(op.machine)]);
    const Time start = oracle_next_feasible_start(op.machine, earliest,
                                                  op.duration, downtimes);
    const Time end = start + op.duration;
    schedule.ops.push_back(ScheduledOp{job, index, op.machine, start, end});
    job_free[static_cast<std::size_t>(job)] = end;
    machine_free[static_cast<std::size_t>(op.machine)] = end;
  }
  return schedule;
}

Time oracle_makespan(const JobShopInstance& inst, std::span<const int> prefix,
                     std::span<const int> suffix,
                     std::span<const Downtime> downtimes) {
  std::vector<int> full(prefix.begin(), prefix.end());
  full.insert(full.end(), suffix.begin(), suffix.end());
  return oracle_decode(inst, full, downtimes).makespan();
}

bool same_ops(const Schedule& a, const Schedule& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const ScheduledOp& x = a.ops[i];
    const ScheduledOp& y = b.ops[i];
    if (x.job != y.job || x.index != y.index || x.machine != y.machine ||
        x.start != y.start || x.end != y.end) {
      return false;
    }
  }
  return true;
}

JobShopInstance tiny() {
  JobShopInstance inst;
  inst.jobs = 2;
  inst.machines = 2;
  inst.ops = {
      {{0, 3}, {1, 2}},
      {{1, 4}, {0, 1}},
  };
  return inst;
}

TEST(DowntimeDecode, NoDowntimeMatchesPlainDecode) {
  const JobShopInstance inst = tiny();
  const std::vector<int> seq = {0, 1, 0, 1};
  const Schedule plain = decode_operation_based(inst, seq);
  const Schedule with = decode_with_downtime(inst, seq, {});
  EXPECT_EQ(plain.makespan(), with.makespan());
}

TEST(DowntimeDecode, OperationPushedPastWindow) {
  const JobShopInstance inst = tiny();
  const std::vector<int> seq = {0, 1, 0, 1};
  // Plain: j0 op0 on m0 [0,3). Block m0 during [1,5): op must start at 5.
  const std::vector<Downtime> windows = {{0, 1, 5}};
  const Schedule s = decode_with_downtime(inst, seq, windows);
  EXPECT_EQ(s.ops[0].start, 5);
  EXPECT_EQ(s.ops[0].end, 8);
  // No op overlaps the window.
  for (const auto& op : s.ops) {
    if (op.machine == 0) {
      EXPECT_TRUE(op.end <= 1 || op.start >= 5);
    }
  }
}

TEST(DowntimeDecode, BackToBackWindowsChainCorrectly) {
  const JobShopInstance inst = tiny();
  const std::vector<int> seq = {0, 1, 0, 1};
  const std::vector<Downtime> windows = {{0, 1, 4}, {0, 4, 6}, {0, 7, 8}};
  const Schedule s = decode_with_downtime(inst, seq, windows);
  // j0 op0 (3 units on m0) cannot fit in [0,1), is pushed past [1,4) and
  // [4,6), cannot fit in [6,7), so starts at 8.
  EXPECT_EQ(s.ops[0].start, 8);
  EXPECT_EQ(validate(s, inst.validation_spec()), std::nullopt);
}

TEST(DowntimeDecode, EndAtTheTimeMaximumStopsAtTheRowSentinel) {
  // Pushed past [0, 1), the operation ends exactly at the Time maximum:
  // the cursor skip must stop on the row's sentinel (start = end = Time
  // max) instead of walking past the end of the row.
  constexpr Time kMax = std::numeric_limits<Time>::max();
  JobShopInstance inst;
  inst.jobs = 1;
  inst.machines = 1;
  inst.ops = {{{0, kMax - 1}}};
  const std::vector<int> seq = {0};
  const std::vector<Downtime> windows = {{0, 0, 1}};
  const Schedule s = decode_with_downtime(inst, seq, windows);
  ASSERT_EQ(s.ops.size(), 1u);
  EXPECT_EQ(s.ops[0].start, 1);
  EXPECT_EQ(s.ops[0].end, kMax);
  EXPECT_TRUE(same_ops(s, oracle_decode(inst, seq, windows)));
}

TEST(SimulateDynamic, RightShiftNeverBeatsNoDisruption) {
  par::Rng rng(1);
  const JobShopInstance& inst = ft06().instance;
  const auto seq = random_operation_sequence(inst, rng);
  const auto windows = random_downtimes(6, 4, 40, 5, 15, 7);
  const DynamicRunResult result = simulate_dynamic(inst, seq, windows);
  EXPECT_GE(result.realized_makespan, result.predictive_makespan);
  EXPECT_EQ(result.replans, 0);
}

TEST(SimulateDynamic, ReactiveReplanCountsAndHelps) {
  par::Rng rng(2);
  const JobShopInstance& inst = ft06().instance;
  const auto seq = random_operation_sequence(inst, rng);
  const auto windows = random_downtimes(6, 3, 30, 10, 20, 11);

  const DynamicRunResult passive = simulate_dynamic(inst, seq, windows);

  // Reactive: re-optimize the remaining operations with a short GA.
  std::vector<Downtime> window_vec(windows.begin(), windows.end());
  auto replanner = [&](const ReplanContext& context) {
    auto problem = std::make_shared<ga::DynamicSuffixProblem>(
        &inst, context.frozen_prefix, context.remaining, window_vec);
    ga::GaConfig cfg;
    cfg.population = 20;
    cfg.termination.max_generations = 15;
    cfg.seed = 5;
    ga::SimpleGa engine(problem, cfg);
    const ga::GaResult r = engine.run();
    ga::Genome incumbent;
    incumbent.seq = context.remaining;
    return problem->objective(incumbent) <= r.best_objective
               ? context.remaining
               : r.best.seq;
  };
  const DynamicRunResult reactive =
      simulate_dynamic(inst, seq, windows, replanner);
  EXPECT_GT(reactive.replans, 0);
  EXPECT_LE(reactive.realized_makespan, passive.realized_makespan);
  // The realized schedule is still feasible.
  EXPECT_EQ(validate(reactive.realized_schedule, inst.validation_spec()),
            std::nullopt);
}

TEST(SimulateDynamic, ReplannerReturningGarbageIsRejected) {
  par::Rng rng(3);
  const JobShopInstance& inst = ft06().instance;
  const auto seq = random_operation_sequence(inst, rng);
  const auto windows = random_downtimes(6, 2, 30, 5, 10, 13);
  auto bad_replanner = [](const ReplanContext& context) {
    std::vector<int> wrong = context.remaining;
    if (!wrong.empty()) wrong[0] = (wrong[0] + 1) % 6;  // breaks multiset
    return wrong;
  };
  const DynamicRunResult result =
      simulate_dynamic(inst, seq, windows, bad_replanner);
  EXPECT_EQ(result.replans, 0);  // rejected
  EXPECT_EQ(validate(result.realized_schedule, inst.validation_spec()),
            std::nullopt);
}

TEST(RandomDowntimes, DeterministicAndWellFormed) {
  const auto a = random_downtimes(5, 10, 100, 5, 20, 42);
  const auto b = random_downtimes(5, 10, 100, 5, 20, 42);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].machine, b[i].machine);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_GE(a[i].machine, 0);
    EXPECT_LT(a[i].machine, 5);
    EXPECT_GT(a[i].end, a[i].start);
  }
}

// The session layer's rebasing contract, fuzzed: splitting a plan at a
// disruption instant must lose nothing. For random instances, sequences,
// downtime sets and split instants:
//   * frozen_prefix + remaining reassemble the sequence exactly;
//   * the freeze rule holds (prefix ops start before `now`, the first
//     remaining op does not);
//   * realizing frozen + remaining reproduces the full decode's makespan
//     (split → realize is the identity under right-shift);
//   * DynamicSuffixProblem's scalar decode of any legal suffix agrees
//     with realized_makespan_with_prefix on the original instance — the
//     objective a replanning GA optimizes IS the realized makespan.
TEST(SplitAt, FuzzRebaseAgreesWithFullDecode) {
  par::Rng rng(99);
  for (int t = 0; t < 60; ++t) {
    const int jobs = 3 + static_cast<int>(rng.below(5));
    const int machines = 2 + static_cast<int>(rng.below(4));
    const JobShopInstance inst =
        random_job_shop(jobs, machines, 1000 + static_cast<std::uint64_t>(t));
    const std::vector<int> seq = random_operation_sequence(inst, rng);
    const Time horizon = decode_operation_based(inst, seq).makespan();
    const std::vector<Downtime> windows = random_downtimes(
        machines, static_cast<int>(rng.below(4)), horizon, 1,
        horizon / 4 + 1, 77 + static_cast<std::uint64_t>(t));
    const Schedule full = decode_with_downtime(inst, seq, windows);
    const Time now = rng.range(0, static_cast<int>(horizon) + 10);

    const ReplanContext context = split_at(inst, seq, windows, now);
    const std::size_t frozen = context.frozen_prefix.size();
    ASSERT_LE(frozen, seq.size());
    ASSERT_EQ(context.frozen_prefix.size() + context.remaining.size(),
              seq.size());
    for (std::size_t i = 0; i < frozen; ++i) {
      EXPECT_EQ(context.frozen_prefix[i], seq[i]);
      EXPECT_LT(full.ops[i].start, now);
    }
    for (std::size_t i = 0; i < context.remaining.size(); ++i) {
      EXPECT_EQ(context.remaining[i], seq[frozen + i]);
    }
    if (frozen < seq.size()) EXPECT_GE(full.ops[frozen].start, now);

    EXPECT_EQ(realized_makespan_with_prefix(inst, context.frozen_prefix,
                                            context.remaining, windows),
              full.makespan());

    ga::DynamicSuffixProblem problem(&inst, context.frozen_prefix,
                                     context.remaining, windows);
    const auto workspace = problem.make_workspace();
    for (int s = 0; s < 3; ++s) {
      const ga::Genome suffix = problem.random_genome(rng);
      const double realized = static_cast<double>(realized_makespan_with_prefix(
          inst, context.frozen_prefix, suffix.seq, windows));
      EXPECT_EQ(problem.objective(suffix), realized);
      EXPECT_EQ(problem.objective(suffix, *workspace), realized);
    }
  }
}

/// The one downtime core against the oracle, on every entry point: full
/// ScheduledOp equality for decode_with_downtime, and for each split of
/// the plan the frozen prefix, realized_makespan_with_prefix, the suffix
/// problem's scalar and workspace objectives, and a serial Evaluator and
/// one on a 3-lane pool over the same genomes. Instances cover J 1-12,
/// M 1-8, durations 0-3 / the generator's with about a quarter zeroed /
/// the generator's, release dates on half, 0-8 windows (zero-length,
/// overlapping, nested, ending before the prefix frontier, and one on a
/// machine outside [0, M)), and one 70 x 3 shop. Window-dense rows follow:
/// 8-32 windows on one or two machines, nested, overlapping, adjacent,
/// zero-length and inverted, plus windows that start where an operation
/// of the plain decode ends (start + duration == w.start) or end where
/// one starts (start == w.end).
TEST(DowntimeCore, MatchesTheOracleOnEveryEntryPoint) {
  par::ThreadPool pool(3);
  long long checks = 0;
  long long mismatches = 0;
  int t = 0;
  auto check = [&](bool ok, const char* what) {
    ++checks;
    if (!ok && ++mismatches <= 5) {
      ADD_FAILURE() << "instance " << t << ": " << what;
    }
  };
  // Every entry point on one plan and window set, split at `splits`
  // random instants in [0, span + 5].
  auto check_entry_points = [&](par::Rng& rng, const JobShopInstance& inst,
                                const std::vector<int>& seq,
                                const std::vector<Downtime>& windows,
                                int span, int splits) {
    const Schedule full = oracle_decode(inst, seq, windows);
    check(same_ops(decode_with_downtime(inst, seq, windows), full),
          "decode_with_downtime");

    for (int k = 0; k < splits; ++k) {
      const Time now = rng.range(0, span + 5);
      const ReplanContext context = split_at(inst, seq, windows, now);
      std::size_t frozen = 0;
      while (frozen < full.ops.size() && full.ops[frozen].start < now) {
        ++frozen;
      }
      check(context.frozen_prefix.size() == frozen, "split_at frozen count");

      auto problem = std::make_shared<const ga::DynamicSuffixProblem>(
          &inst, context.frozen_prefix, context.remaining, windows);
      const auto workspace = problem->make_workspace();
      std::vector<ga::Genome> genomes;
      std::vector<double> expected;
      for (int g = 0; g < 20; ++g) {
        genomes.push_back(problem->random_genome(rng));
        const Time oracle = oracle_makespan(inst, context.frozen_prefix,
                                            genomes.back().seq, windows);
        expected.push_back(static_cast<double>(oracle));
        check(realized_makespan_with_prefix(inst, context.frozen_prefix,
                                            genomes.back().seq,
                                            windows) == oracle,
              "realized_makespan_with_prefix");
        check(problem->objective(genomes.back()) == expected.back(),
              "objective(g)");
        check(problem->objective(genomes.back(), *workspace) ==
                  expected.back(),
              "objective(g, workspace)");
      }
      for (const ga::EvalBackend backend :
           {ga::EvalBackend::kSerial, ga::EvalBackend::kThreadPool}) {
        ga::Evaluator evaluator(problem, backend, &pool);
        std::vector<double> objectives(genomes.size());
        evaluator.evaluate(genomes, objectives);
        for (std::size_t g = 0; g < genomes.size(); ++g) {
          check(objectives[g] == expected[g],
                backend == ga::EvalBackend::kSerial ? "serial Evaluator"
                                                    : "3-lane pool Evaluator");
        }
      }
    }
  };

  par::Rng rng(2026);
  for (; t <= 1000; ++t) {
    const bool wide = t == 1000;
    const int jobs = wide ? 70 : 1 + static_cast<int>(rng.below(12));
    const int machines = wide ? 3 : 1 + static_cast<int>(rng.below(8));
    const int mode = static_cast<int>(rng.below(3));
    JobShopInstance inst =
        mode == 0 ? random_job_shop(jobs, machines, 500u + t, 0, 3)
                  : random_job_shop(jobs, machines, 500u + t);
    if (mode == 1) {
      for (auto& route : inst.ops) {
        for (JsOperation& op : route) {
          if (rng.below(4) == 0) op.duration = 0;
        }
      }
    }
    if (rng.below(2) == 0) {
      inst.attrs.release.resize(static_cast<std::size_t>(jobs));
      for (Time& r : inst.attrs.release) r = rng.range(0, 40);
    }
    const std::vector<int> seq = random_operation_sequence(inst, rng);
    const Time horizon = oracle_decode(inst, seq, {}).makespan();
    const int span = static_cast<int>(horizon) + 1;

    std::vector<Downtime> windows;
    const int count = static_cast<int>(rng.below(9));
    for (int w = 0; w < count; ++w) {
      Downtime window;
      window.machine = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(machines)));
      switch (rng.below(4)) {
        case 0:  // zero-length
          window.start = rng.range(0, span);
          window.end = window.start;
          break;
        case 1:  // nested in or overlapping an earlier window
          if (!windows.empty()) {
            const Downtime& outer = windows[rng.below(windows.size())];
            window.machine = outer.machine;
            window.start = outer.start + rng.range(-2, 2);
            window.end = outer.end + rng.range(-2, 2);
            break;
          }
          [[fallthrough]];
        case 2:  // early: ends before most of the plan's frontier
          window.start = rng.range(0, span / 4 + 1);
          window.end = window.start + rng.range(0, 3);
          break;
        default:
          window.start = rng.range(0, span);
          window.end = window.start + rng.range(0, span / 3 + 1);
          break;
      }
      windows.push_back(window);
    }
    if (t % 7 == 0) {
      windows.push_back(Downtime{t % 2 == 0 ? machines : -1, 0, span});
    }
    check_entry_points(rng, inst, seq, windows, span, wide ? 40 : 3);
  }

  // Window-dense rows.
  par::Rng dense(4242);
  std::size_t densest = 0;
  for (int d = 0; d < 400; ++d, ++t) {
    const int jobs = 2 + static_cast<int>(dense.below(9));
    const int machines = 1 + static_cast<int>(dense.below(4));
    JobShopInstance inst =
        d % 3 == 0 ? random_job_shop(jobs, machines, 9000u + d, 0, 3)
                   : random_job_shop(jobs, machines, 9000u + d);
    if (d % 3 == 1) {
      for (auto& route : inst.ops) {
        for (JsOperation& op : route) {
          if (dense.below(4) == 0) op.duration = 0;
        }
      }
    }
    const std::vector<int> seq = random_operation_sequence(inst, dense);
    const Schedule plain = oracle_decode(inst, seq, {});
    const int span = static_cast<int>(plain.makespan()) + 1;
    const int hot[2] = {
        static_cast<int>(dense.below(static_cast<std::uint64_t>(machines))),
        static_cast<int>(dense.below(static_cast<std::uint64_t>(machines)))};

    std::vector<Downtime> windows;
    const int count = 8 + static_cast<int>(dense.below(25));
    for (int w = 0; w < count; ++w) {
      Downtime window;
      window.machine = hot[w % 2];
      const Downtime* earlier =
          windows.empty() ? nullptr : &windows[dense.below(windows.size())];
      std::vector<const ScheduledOp*> on_machine;
      for (const ScheduledOp& op : plain.ops) {
        if (op.machine == window.machine) on_machine.push_back(&op);
      }
      const ScheduledOp* op =
          on_machine.empty() ? nullptr
                             : on_machine[dense.below(on_machine.size())];
      switch (dense.below(8)) {
        case 0:  // nested in an earlier window
          if (earlier != nullptr) {
            window.machine = earlier->machine;
            window.start = earlier->start + dense.range(0, 2);
            window.end = earlier->end - dense.range(0, 2);
            break;
          }
          [[fallthrough]];
        case 1:  // starts inside an earlier window, ends past it
          if (earlier != nullptr) {
            window.machine = earlier->machine;
            const auto length = static_cast<int>(
                std::max<Time>(0, earlier->end - earlier->start));
            window.start = earlier->start + dense.range(0, length);
            window.end = std::max(window.start, earlier->end) +
                         dense.range(1, span / 4 + 1);
            break;
          }
          [[fallthrough]];
        case 2:  // adjacent: starts where an earlier window ends
          if (earlier != nullptr) {
            window.machine = earlier->machine;
            window.start = earlier->end;
            window.end = window.start + dense.range(0, span / 6 + 1);
            break;
          }
          [[fallthrough]];
        case 3:  // zero-length
          window.start = dense.range(0, span);
          window.end = window.start;
          break;
        case 4:  // inverted
          window.start = dense.range(1, span);
          window.end = window.start - dense.range(1, 3);
          break;
        case 5:  // an operation's end is the window's start
          if (op != nullptr) {
            window.start = op->end;
            window.end = window.start + dense.range(0, span / 5 + 1);
            break;
          }
          [[fallthrough]];
        case 6:  // an operation's start is the window's end
          if (op != nullptr) {
            window.end = op->start;
            window.start = window.end - dense.range(0, span / 5 + 1);
            break;
          }
          [[fallthrough]];
        default:
          window.start = dense.range(0, span);
          window.end = window.start + dense.range(0, span / 4 + 1);
          break;
      }
      windows.push_back(window);
    }
    std::vector<std::size_t> per_machine(static_cast<std::size_t>(machines));
    for (const Downtime& w : windows) {
      densest = std::max(densest, ++per_machine[static_cast<std::size_t>(
                                      w.machine)]);
    }
    check_entry_points(dense, inst, seq, windows, span, 3);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GE(checks, 50000);
  EXPECT_GE(densest, 30u);
}

TEST(DynamicSuffixProblem, GenomesArePermutationsOfRemaining) {
  const JobShopInstance& inst = ft06().instance;
  const std::vector<int> prefix = {0, 1, 2};
  std::vector<int> remaining;
  for (int j = 0; j < 6; ++j) {
    for (int k = 0; k < 6; ++k) remaining.push_back(j);
  }
  // The prefix dispatched the first op of jobs 0, 1 and 2 — drop one
  // occurrence of each so prefix + suffix stays a valid op multiset
  // (erasing the first three genes dropped three job-0 ops instead,
  // which made the decoder read past job 1's and 2's routes).
  for (int j : prefix) {
    remaining.erase(std::find(remaining.begin(), remaining.end(), j));
  }
  ga::DynamicSuffixProblem problem(&inst, prefix, remaining, {});
  par::Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    const ga::Genome g = problem.random_genome(rng);
    EXPECT_TRUE(genome_valid(g, problem.traits()));
    EXPECT_GT(problem.objective(g), 0.0);
  }
}

}  // namespace
}  // namespace psga::sched
