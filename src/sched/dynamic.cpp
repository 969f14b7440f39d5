#include "src/sched/dynamic.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "src/par/rng.h"

namespace psga::sched {

DowntimeFrontier::DowntimeFrontier(const JobShopInstance& inst,
                                   std::span<const int> prefix,
                                   std::span<const Downtime> downtimes)
    : machines_(inst.machines) {
  const auto jobs = static_cast<std::size_t>(inst.jobs);
  job_offset_.assign(jobs + 1, 0);
  for (std::size_t j = 0; j < jobs; ++j) {
    job_offset_[j + 1] = job_offset_[j] + static_cast<int>(inst.ops[j].size());
    for (const JsOperation& op : inst.ops[j]) {
      op_machine_.push_back(op.machine);
      op_duration_.push_back(op.duration);
    }
  }
  next_op_.assign(job_offset_.begin(), job_offset_.end() - 1);
  job_free_.resize(jobs);
  for (int j = 0; j < inst.jobs; ++j) {
    job_free_[static_cast<std::size_t>(j)] = inst.attrs.release_of(j);
  }
  machine_free_.assign(static_cast<std::size_t>(machines_), 0);

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
  prefix_makespan_ = run(prefix, next_op_.data(), job_free_.data(),
                         machine_free_.data(), 0, nullptr);
  std::erase_if(sorted, [&](const Downtime& w) {
    return w.end <= machine_free_[static_cast<std::size_t>(w.machine)];
  });
  pack_windows(sorted);
}

void DowntimeFrontier::pack_windows(std::span<const Downtime> sorted) {
  std::vector<int> count(static_cast<std::size_t>(machines_), 0);
  for (const Downtime& w : sorted) ++count[static_cast<std::size_t>(w.machine)];
  width_ = count.empty() ? 0 : *std::max_element(count.begin(), count.end());
  // Padding slots never overlap: start < Time max holds, but
  // start + duration > Time max cannot.
  constexpr Time kNever = std::numeric_limits<Time>::max();
  windows_.assign(static_cast<std::size_t>(machines_ * width_),
                  Window{kNever, kNever});
  std::fill(count.begin(), count.end(), 0);
  for (const Downtime& w : sorted) {
    const auto m = static_cast<std::size_t>(w.machine);
    windows_[m * static_cast<std::size_t>(width_) +
             static_cast<std::size_t>(count[m]++)] = Window{w.start, w.end};
  }
}

Time DowntimeFrontier::run(std::span<const int> genes, int* next_op,
                           Time* job_free, Time* machine_free, Time makespan,
                           std::vector<ScheduledOp>* out) const {
  for (const int job : genes) {
    const int flat = next_op[job]++;
    const int machine = op_machine_[static_cast<std::size_t>(flat)];
    const Time duration = op_duration_[static_cast<std::size_t>(flat)];
    Time start = std::max(job_free[job], machine_free[machine]);
    const Window* row = windows_.data() + machine * width_;
    for (int i = 0; i < width_; ++i) {
      // Push past the window if [start, start + duration) overlaps it.
      const Time mask = -static_cast<Time>((start < row[i].end) &
                                           (start + duration > row[i].start));
      start ^= (start ^ row[i].end) & mask;
    }
    const Time end = start + duration;
    job_free[job] = end;
    machine_free[machine] = end;
    makespan = std::max(makespan, end);
    if (out != nullptr) {
      out->push_back(ScheduledOp{
          job, flat - job_offset_[static_cast<std::size_t>(job)], machine,
          start, end});
    }
  }
  return makespan;
}

Time DowntimeFrontier::makespan_with(std::span<const int> suffix,
                                     Scratch& scratch) const {
  scratch.next_op.assign(next_op_.begin(), next_op_.end());
  scratch.job_free.assign(job_free_.begin(), job_free_.end());
  scratch.machine_free.assign(machine_free_.begin(), machine_free_.end());
  return run(suffix, scratch.next_op.data(), scratch.job_free.data(),
             scratch.machine_free.data(), prefix_makespan_, nullptr);
}

Schedule DowntimeFrontier::decode(std::span<const int> suffix) const {
  Scratch scratch{next_op_, job_free_, machine_free_};
  Schedule schedule;
  schedule.ops.reserve(suffix.size());
  run(suffix, scratch.next_op.data(), scratch.job_free.data(),
      scratch.machine_free.data(), prefix_makespan_, &schedule.ops);
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
