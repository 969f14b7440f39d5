// What the running CPU offers the register kernels (the Giffler–Thompson
// step in src/sched/job_shop.cpp, keep-and-fill crossover in
// src/ga/crossover.cpp). One probe serves both.
#pragma once

namespace psga::par {

struct CpuFeatures {
  bool avx512f = false;
  bool bmi = false;  ///< tzcnt, the GT step's setter lane
};

/// The running CPU's features, probed once. Safe before main: a static
/// initializer may build a JobShopProblem ahead of libgcc's own probe.
/// All false off x86-64 GCC/Clang builds.
const CpuFeatures& cpu_features();

}  // namespace psga::par
