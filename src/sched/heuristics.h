// Constructive reference heuristics. They provide (a) the heuristic
// objective value F̄ used by the survey's fitness transform Eq. (1), (b)
// warm-start individuals for the GAs, and (c) the serial reference that
// stands in for the commercial solver baseline of Akhshabi et al. [18]:
// Lingo 8 is not available here, so E05 compares against NEH and the
// serial engine instead.
#pragma once

#include <vector>

#include "src/sched/flow_shop.h"
#include "src/sched/job_shop.h"

namespace psga::sched {

/// NEH (Nawaz–Enscore–Ham 1983): the canonical permutation-flow-shop
/// constructive heuristic. Returns the job permutation it builds.
std::vector<int> neh_permutation(const FlowShopInstance& inst);

/// Convenience: NEH makespan.
Time neh_makespan(const FlowShopInstance& inst);

/// Best dispatching-rule schedule over {SPT, LPT, MWR, FCFS} via
/// Giffler–Thompson; returns its makespan (job shop reference F̄).
Time best_dispatch_makespan(const JobShopInstance& inst);

}  // namespace psga::sched
