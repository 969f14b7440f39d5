#include "src/par/cpu.h"

namespace psga::par {

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    f.avx512f = __builtin_cpu_supports("avx512f");
    f.bmi = __builtin_cpu_supports("bmi");
#endif
    return f;
  }();
  return features;
}

}  // namespace psga::par
