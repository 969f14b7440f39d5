// Embedded classic job-shop benchmark instances.
//
// Park et al. [26] evaluate on the MT (Fisher–Thompson), ABZ and ORB
// families. The FT (MT) instances and LA01 are embedded verbatim below —
// they are short and universally reproduced in the literature, each with
// its proven optimal makespan. The ABZ/ORB data files are not available
// offline; experiments that would use them substitute seeded random job
// shops of the same 10 x 10 shape (sched::random_job_shop, as E08 does)
// rather than ship unverifiable data.
#pragma once

#include "src/sched/job_shop.h"

namespace psga::sched {

struct ClassicInstance {
  const char* name;
  Time optimum;  ///< proven optimal makespan
  JobShopInstance instance;
};

/// ft06 — Fisher & Thompson 6×6, optimum 55.
const ClassicInstance& ft06();
/// ft10 — Fisher & Thompson 10×10 ("mt10"), optimum 930.
const ClassicInstance& ft10();
/// ft20 — Fisher & Thompson 20×5 ("mt20"), optimum 1165.
const ClassicInstance& ft20();
/// la01 — Lawrence 10×5, optimum 666.
const ClassicInstance& la01();

/// All embedded classics.
const std::vector<const ClassicInstance*>& classic_instances();

}  // namespace psga::sched
