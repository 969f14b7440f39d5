// Dynamic shop scheduling — the second "new integrated factor" of the
// survey's Section II (Tang et al. [9]: predictive-reactive rescheduling
// under a dynamic environment). The model here: machine breakdowns as
// unavailability windows hitting a job shop mid-execution.
//
// Two repair strategies are provided:
//   * right-shift repair — keep the predictive operation order, push
//     affected operations past the downtime (the standard passive
//     baseline);
//   * predictive-reactive — at each disruption, freeze everything already
//     started, and re-optimize the ordering of the remaining operations
//     (the survey's "predictive reactive approach"; the re-optimizer is a
//     pluggable callback so benches can run a GA there).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/sched/job_shop.h"

namespace psga::sched {

/// Machine m is unusable during [start, end).
struct Downtime {
  int machine = 0;
  Time start = 0;
  Time end = 0;
};

/// Semi-active list decode honoring downtime windows: a non-preemptive
/// operation starts at the least instant >= its earliest start whose
/// [start, start + duration) overlaps no window of its machine. Windows
/// naming a machine outside [0, machines) are ignored.
Schedule decode_with_downtime(const JobShopInstance& inst,
                              std::span<const int> op_sequence,
                              std::span<const Downtime> downtimes);

/// A plan's frozen prefix decoded once against the downtime windows: the
/// per-job and per-machine frontier every candidate suffix replays from.
/// This is the one downtime decode loop; decode_with_downtime,
/// realized_makespan_with_prefix and DynamicSuffixProblem all run it.
///
/// Routes are flattened (job j's k-th operation is `job_offset[j] + k`).
/// Windows are grouped per machine and sorted by start; each machine's
/// row ends in a sentinel slot (start = end = `Time` max). The window
/// rule is one pass over the row in start order, pushing the start to
/// `w.end` whenever `[start, start + duration)` overlaps `w`; that pass
/// reaches the same least feasible start as rescanning until nothing
/// moves. Per machine the replay keeps a cursor into its row and a gate,
/// the start of the cursor's window. An operation that ends by the gate
/// meets no window and is scheduled as the plain semi-active decode
/// would. Only one that crosses the gate runs the pass, from the cursor
/// to the first window starting at or after its end: from there on no
/// window can push, because rows are sorted by start and the start no
/// longer moves. The cursor then skips the windows that end by the
/// operation's end, which is the machine's new free time: no later
/// operation on the machine starts before it, so none of them can push
/// again. After the prefix decode, windows ending at or before their
/// machine's frontier are dropped; a machine left with only its sentinel
/// has its gate at `Time` max, which no operation crosses, so a frontier
/// with no window replays as the plain semi-active decode: that is how
/// JobShopProblem evaluates every semi-active genome. Keeps no reference
/// to the instance.
class DowntimeFrontier {
 public:
  /// Replay scratch: the saved frontier is copied in on every call, so
  /// this is capacity, not state (one per evaluator lane).
  struct Scratch {
    std::vector<Time> frontier;
  };

  DowntimeFrontier(const JobShopInstance& inst, std::span<const int> prefix,
                   std::span<const Downtime> downtimes);

  /// Makespan of prefix + `suffix` (Schedule::makespan semantics),
  /// replaying only the suffix. Allocation-free once `scratch` has grown.
  Time makespan_with(std::span<const int> suffix, Scratch& scratch) const;

  /// Per-job completion times of prefix + `suffix`, replaying only the
  /// suffix: the end of each job's last scheduled operation, 0 for a job
  /// with none (Schedule::job_completion_times for non-negative durations
  /// and release dates). Points into `scratch`, valid until its next use;
  /// allocation-free once it has grown.
  std::span<const Time> completion_times(std::span<const int> suffix,
                                         Scratch& scratch) const;

  /// The suffix's operations as scheduled after the prefix.
  Schedule decode(std::span<const int> suffix) const;

 private:
  struct Window {
    Time start = 0;
    Time end = 0;
  };

  /// Lays `sorted` (by machine, then start) out as per-machine rows, each
  /// closed by a sentinel, and points every cursor and gate at its row's
  /// first window.
  void pack_windows(std::span<const Downtime> sorted);
  /// Schedules `genes` from `frontier` (laid out as in frontier_), hands
  /// each operation to `emit(job, flat, machine, start, end)` and returns
  /// the running makespan.
  template <typename Emit>
  Time run(std::span<const int> genes, Time* frontier, Time makespan,
           Emit emit) const;

  int jobs_ = 0;
  int machines_ = 0;
  std::vector<int> job_offset_;  ///< jobs + 1 entries
  std::vector<int> op_machine_;
  std::vector<Time> op_duration_;
  std::vector<Window> windows_;  ///< per-machine rows, sentinel-closed
  /// The frontier after the prefix, one block copied per replay: each
  /// job's next flat operation and free time, each machine's free time,
  /// then each machine's gate and cursor, the cursor an index into
  /// windows_.
  std::vector<Time> frontier_;
  Time prefix_makespan_ = 0;
};

/// The state handed to a reactive re-optimizer at a disruption instant.
struct ReplanContext {
  Time now = 0;  ///< disruption time: ops starting earlier are frozen
  /// The frozen prefix of the current sequence (genes already dispatched).
  std::vector<int> frozen_prefix;
  /// Multiset of job ids still to dispatch, in current planned order.
  std::vector<int> remaining;
};

/// Returns a (possibly re-ordered) replacement for context.remaining. The
/// returned vector must be a permutation of it.
using Replanner = std::function<std::vector<int>(const ReplanContext&)>;

/// Splits `sequence` at disruption instant `now`: decodes it against
/// `downtimes` and freezes the maximal gene-order prefix whose decoded
/// start is strictly before `now` (the genes already dispatched); the
/// rest is the re-optimizable remainder. This is the single freeze rule
/// shared by simulate_dynamic and the online session layer, so both
/// agree on what a replanner may touch.
ReplanContext split_at(const JobShopInstance& inst,
                       std::span<const int> sequence,
                       std::span<const Downtime> downtimes, Time now);

struct DynamicRunResult {
  Time predictive_makespan = 0;   ///< makespan ignoring the disruptions
  Time realized_makespan = 0;     ///< makespan actually achieved
  Schedule realized_schedule;
  int replans = 0;
};

/// Executes a predictive sequence against the given downtimes with
/// right-shift repair only (replanner == nullptr), or re-planning the
/// remaining operations at the start of each downtime window.
DynamicRunResult simulate_dynamic(const JobShopInstance& inst,
                                  std::span<const int> predictive_sequence,
                                  std::span<const Downtime> downtimes,
                                  const Replanner& replanner = nullptr);

/// Random downtime generator: `count` windows on random machines, start
/// uniform in [0, horizon], length uniform in [len_lo, len_hi].
std::vector<Downtime> random_downtimes(int machines, int count, Time horizon,
                                       Time len_lo, Time len_hi,
                                       std::uint64_t seed);

/// Objective wrapper used by a reactive GA: the realized makespan of
/// (frozen prefix + candidate suffix) under the downtimes. Builds a
/// DowntimeFrontier for the prefix; callers scoring many suffixes of one
/// prefix should keep the frontier instead.
Time realized_makespan_with_prefix(const JobShopInstance& inst,
                                   std::span<const int> frozen_prefix,
                                   std::span<const int> suffix,
                                   std::span<const Downtime> downtimes);

}  // namespace psga::sched
