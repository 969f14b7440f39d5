#include "src/sched/dynamic.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "src/par/rng.h"

namespace psga::sched {

namespace {

// A sentinel window never overlaps: start + duration > Time max cannot
// hold, so the pass stops on it, and a gate at Time max is never crossed.
constexpr Time kNever = std::numeric_limits<Time>::max();

// The emit of replays that only need the makespan.
constexpr auto kDiscard = [](int, Time, int, Time, Time) {};

}  // namespace

DowntimeFrontier::DowntimeFrontier(const JobShopInstance& inst,
                                   std::span<const int> prefix,
                                   std::span<const Downtime> downtimes)
    : jobs_(inst.jobs), machines_(inst.machines) {
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  job_offset_.assign(jobs + 1, 0);
  for (std::size_t j = 0; j < jobs; ++j) {
    job_offset_[j + 1] = job_offset_[j] + static_cast<int>(inst.ops[j].size());
    for (const JsOperation& op : inst.ops[j]) {
      op_machine_.push_back(op.machine);
      op_duration_.push_back(op.duration);
    }
  }
  frontier_.assign(job_offset_.begin(), job_offset_.end() - 1);
  for (int j = 0; j < inst.jobs; ++j) {
    frontier_.push_back(inst.attrs.release_of(j));
  }
  // Each machine's free time, gate and cursor; pack_windows sets the last
  // two.
  frontier_.resize(frontier_.size() + 3 * static_cast<std::size_t>(machines_),
                   0);

  std::vector<Downtime> sorted;
  for (const Downtime& w : downtimes) {
    if (w.machine >= 0 && w.machine < machines_) sorted.push_back(w);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Downtime& a, const Downtime& b) {
              return std::tie(a.machine, a.start, a.end) <
                     std::tie(b.machine, b.start, b.end);
            });
  pack_windows(sorted);
  prefix_makespan_ = run(prefix, frontier_.data(), 0, kDiscard);
  const Time* machine_free = frontier_.data() + 2 * jobs;
  std::erase_if(sorted, [&](const Downtime& w) {
    return w.end <= machine_free[w.machine];
  });
  pack_windows(sorted);
}

void DowntimeFrontier::pack_windows(std::span<const Downtime> sorted) {
  const auto machines = static_cast<std::size_t>(machines_);
  Time* const gate =
      frontier_.data() + 2 * static_cast<std::size_t>(jobs_) + machines;
  Time* const cursor = gate + machines;
  windows_.clear();
  windows_.reserve(sorted.size() + machines);
  auto w = sorted.begin();
  for (int m = 0; m < machines_; ++m) {
    cursor[m] = static_cast<Time>(windows_.size());
    for (; w != sorted.end() && w->machine == m; ++w) {
      windows_.push_back(Window{w->start, w->end});
    }
    windows_.push_back(Window{kNever, kNever});
    gate[m] = windows_[static_cast<std::size_t>(cursor[m])].start;
  }
}

template <typename Emit>
Time DowntimeFrontier::run(std::span<const int> genes, Time* frontier,
                           Time makespan, Emit emit) const {
  const int* const op_machine = op_machine_.data();
  const Time* const op_duration = op_duration_.data();
  const Window* const windows = windows_.data();
  Time* const next_op = frontier;
  Time* const job_free = next_op + jobs_;
  Time* const machine_free = job_free + jobs_;
  Time* const gate = machine_free + machines_;
  Time* const cursor = gate + machines_;
  for (const int job : genes) {
    const Time flat = next_op[job]++;
    const int machine = op_machine[flat];
    const Time duration = op_duration[flat];
    Time start = std::max(job_free[job], machine_free[machine]);
    if (start + duration > gate[machine]) [[unlikely]] {
      // The window pass, from the cursor to the first window that starts
      // at or after the operation's end.
      const Window* w = windows + cursor[machine];
      for (const Window* p = w; start + duration > p->start; ++p) {
        start = std::max(start, p->end);
      }
      // Skip what ends by the machine's new free time; stop at the
      // sentinel even when that time is Time max.
      while (w->end <= start + duration && w->start != kNever) ++w;
      cursor[machine] = w - windows;
      gate[machine] = w->start;
    }
    const Time end = start + duration;
    job_free[job] = end;
    machine_free[machine] = end;
    makespan = std::max(makespan, end);
    emit(job, flat, machine, start, end);
  }
  return makespan;
}

Time DowntimeFrontier::makespan_with(std::span<const int> suffix,
                                     Scratch& scratch) const {
  scratch.frontier.assign(frontier_.begin(), frontier_.end());
  return run(suffix, scratch.frontier.data(), prefix_makespan_, kDiscard);
}

std::span<const Time> DowntimeFrontier::completion_times(
    std::span<const int> suffix, Scratch& scratch) const {
  scratch.frontier.assign(frontier_.begin(), frontier_.end());
  Time* const next_op = scratch.frontier.data();
  Time* const job_free = next_op + jobs_;
  run(suffix, next_op, prefix_makespan_, kDiscard);
  // A job that has scheduled nothing still holds its release date there.
  const int* const first_op = job_offset_.data();
  for (int j = 0; j < jobs_; ++j) {
    if (next_op[j] == first_op[j]) job_free[j] = 0;
  }
  return {job_free, static_cast<std::size_t>(jobs_)};
}

Schedule DowntimeFrontier::decode(std::span<const int> suffix) const {
  std::vector<Time> frontier = frontier_;
  Schedule schedule;
  schedule.ops.reserve(suffix.size());
  run(suffix, frontier.data(), prefix_makespan_,
      [&](int job, Time flat, int machine, Time start, Time end) {
        schedule.ops.push_back(ScheduledOp{
            job,
            static_cast<int>(flat) - job_offset_[static_cast<std::size_t>(job)],
            machine, start, end});
      });
  return schedule;
}

Schedule decode_with_downtime(const JobShopInstance& inst,
                              std::span<const int> op_sequence,
                              std::span<const Downtime> downtimes) {
  return DowntimeFrontier(inst, {}, downtimes).decode(op_sequence);
}

Time realized_makespan_with_prefix(const JobShopInstance& inst,
                                   std::span<const int> frozen_prefix,
                                   std::span<const int> suffix,
                                   std::span<const Downtime> downtimes) {
  DowntimeFrontier::Scratch scratch;
  return DowntimeFrontier(inst, frozen_prefix, downtimes)
      .makespan_with(suffix, scratch);
}

ReplanContext split_at(const JobShopInstance& inst,
                       std::span<const int> sequence,
                       std::span<const Downtime> downtimes, Time now) {
  const Schedule so_far = decode_with_downtime(inst, sequence, downtimes);
  std::size_t frozen = 0;
  while (frozen < so_far.ops.size() && so_far.ops[frozen].start < now) {
    ++frozen;
  }
  ReplanContext context;
  context.now = now;
  context.frozen_prefix.assign(
      sequence.begin(), sequence.begin() + static_cast<std::ptrdiff_t>(frozen));
  context.remaining.assign(
      sequence.begin() + static_cast<std::ptrdiff_t>(frozen), sequence.end());
  return context;
}

DynamicRunResult simulate_dynamic(const JobShopInstance& inst,
                                  std::span<const int> predictive_sequence,
                                  std::span<const Downtime> downtimes,
                                  const Replanner& replanner) {
  DynamicRunResult result;
  result.predictive_makespan =
      decode_operation_based(inst, predictive_sequence).makespan();

  std::vector<int> sequence(predictive_sequence.begin(),
                            predictive_sequence.end());
  if (replanner != nullptr) {
    // Re-plan at the start of each disruption, in time order.
    std::vector<Downtime> ordered(downtimes.begin(), downtimes.end());
    std::sort(ordered.begin(), ordered.end(),
              [](const Downtime& a, const Downtime& b) {
                return a.start < b.start;
              });
    for (const Downtime& event : ordered) {
      // Decode the current plan against all downtimes to find which genes
      // have started strictly before the event.
      ReplanContext context = split_at(inst, sequence, downtimes, event.start);
      const std::size_t frozen = context.frozen_prefix.size();
      if (frozen >= sequence.size()) continue;  // everything already started
      std::vector<int> replanned = replanner(context);
      // Defensive: accept only genuine permutations of the remainder.
      std::vector<int> a = replanned;
      std::vector<int> b = context.remaining;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a == b) {
        std::copy(replanned.begin(), replanned.end(),
                  sequence.begin() + static_cast<std::ptrdiff_t>(frozen));
        ++result.replans;
      }
    }
  }
  result.realized_schedule = decode_with_downtime(inst, sequence, downtimes);
  result.realized_makespan = result.realized_schedule.makespan();
  return result;
}

std::vector<Downtime> random_downtimes(int machines, int count, Time horizon,
                                       Time len_lo, Time len_hi,
                                       std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<Downtime> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Downtime w;
    w.machine = static_cast<int>(rng.below(static_cast<std::uint64_t>(machines)));
    w.start = rng.range(0, static_cast<int>(horizon));
    w.end = w.start + rng.range(static_cast<int>(len_lo),
                                static_cast<int>(len_hi));
    out.push_back(w);
  }
  return out;
}

}  // namespace psga::sched
