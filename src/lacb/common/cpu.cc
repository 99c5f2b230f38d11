#include "lacb/common/cpu.h"

namespace lacb {

size_t SimdDoubleLanes() {
  static const size_t lanes = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return size_t{8};
    if (__builtin_cpu_supports("avx2")) return size_t{4};
#endif
    return size_t{2};
  }();
  return lanes;
}

const char* SimdTierName() {
  switch (SimdDoubleLanes()) {
    case 8:
      return "avx512f";
    case 4:
      return "avx2";
    default:
#if defined(__x86_64__)
      return "sse2";
#else
      return "generic";
#endif
  }
}

}  // namespace lacb
