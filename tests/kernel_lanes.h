// Runs a parametrized test at every kernel lane width (common/cpu.h): 0 is
// the automatic per-CPU choice, and a width this CPU cannot run is
// skipped, so a host without AVX-512 reads the 8-lane cases as SKIPPED.

#ifndef LACB_TESTS_KERNEL_LANES_H_
#define LACB_TESTS_KERNEL_LANES_H_

#include <string>

#include <gtest/gtest.h>

#include "lacb/common/cpu.h"

namespace lacb {

class KernelLanesTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    if (!ForceKernelLanesForTesting(GetParam()).ok()) {
      GTEST_SKIP() << "this CPU cannot run " << GetParam() << " lanes";
    }
  }
  void TearDown() override { ASSERT_TRUE(ForceKernelLanesForTesting(0).ok()); }
};

inline std::string KernelLanesName(
    const ::testing::TestParamInfo<size_t>& info) {
  switch (info.param) {
    case 2:
      return "L2";
    case 4:
      return "L4";
    case 8:
      return "L8";
    default:
      return "Auto";
  }
}

}  // namespace lacb

#define LACB_INSTANTIATE_KERNEL_LANES(suite)                      \
  INSTANTIATE_TEST_SUITE_P(Lanes, suite,                          \
                           ::testing::Values(size_t{0}, 2, 4, 8), \
                           ::lacb::KernelLanesName)

#endif  // LACB_TESTS_KERNEL_LANES_H_
