#include "lacb/common/cpu.h"

#include <atomic>

namespace lacb {

namespace {

std::atomic<size_t> g_forced_lanes{0};

}  // namespace

size_t SimdDoubleLanes() {
  static const size_t lanes = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return size_t{8};
    }
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

size_t KernelLanes() {
  size_t forced = g_forced_lanes.load(std::memory_order_relaxed);
  return forced != 0 ? forced : SimdDoubleLanes();
}

bool KernelLanesForced() {
  return g_forced_lanes.load(std::memory_order_relaxed) != 0;
}

Status ForceKernelLanesForTesting(size_t lanes) {
  if (lanes != 0 && lanes != 2 && lanes != 4 && lanes != 8) {
    return Status::InvalidArgument("kernel lanes must be 0, 2, 4 or 8");
  }
  if (lanes > SimdDoubleLanes()) {
    return Status::InvalidArgument("this CPU cannot run that lane width");
  }
  g_forced_lanes.store(lanes, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace lacb
