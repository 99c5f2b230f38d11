// Determinism guarantees: every policy, the platform and the bandits
// produce bit-identical results for identical seeds. This is
// load-bearing for the reproduction — every figure in EXPERIMENTS.md is
// regenerable — and for Corollary-1 style paired comparisons.

#include <gtest/gtest.h>

#include "lacb/core/engine.h"
#include "lacb/core/policy_suite.h"

namespace lacb {
namespace {

sim::DatasetConfig TinyConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "determinism";
  cfg.num_brokers = 30;
  cfg.num_requests = 360;
  cfg.num_days = 3;
  cfg.imbalance = 0.2;
  cfg.seed = 321;
  return cfg;
}

class PolicyDeterminism : public ::testing::TestWithParam<size_t> {};

TEST_P(PolicyDeterminism, SameSeedSameRun) {
  size_t index = GetParam();
  core::PolicySuiteConfig suite;
  suite.seed = 55;
  auto make = [&]() {
    auto policies = core::MakePolicySuite(TinyConfig(), suite);
    EXPECT_TRUE(policies.ok());
    return std::move((*policies)[index]);
  };
  auto p1 = make();
  auto p2 = make();
  auto run1 = core::RunPolicy(TinyConfig(), p1.get());
  auto run2 = core::RunPolicy(TinyConfig(), p2.get());
  ASSERT_TRUE(run1.ok());
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run1->policy, run2->policy);
  EXPECT_DOUBLE_EQ(run1->total_utility, run2->total_utility);
  EXPECT_EQ(run1->broker_requests, run2->broker_requests);
  EXPECT_EQ(run1->broker_utility, run2->broker_utility);
  EXPECT_EQ(run1->overloaded_broker_days, run2->overloaded_broker_days);
}

// All nine suite policies, by index (order asserted in engine_test).
INSTANTIATE_TEST_SUITE_P(Suite, PolicyDeterminism,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity: the determinism above is not vacuous — changing the dataset
  // seed changes the outcome.
  core::PolicySuiteConfig suite;
  policy::TopKPolicy p1(3, 1);
  policy::TopKPolicy p2(3, 1);
  sim::DatasetConfig a = TinyConfig();
  sim::DatasetConfig b = TinyConfig();
  b.seed = 99999;
  auto run_a = core::RunPolicy(a, &p1);
  auto run_b = core::RunPolicy(b, &p2);
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());
  EXPECT_NE(run_a->total_utility, run_b->total_utility);
}

TEST(DeterminismTest, PlatformTrialsIdenticalAcrossInstances) {
  auto p1 = sim::Platform::Create(TinyConfig());
  auto p2 = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  for (auto* p : {&*p1, &*p2}) {
    ASSERT_TRUE(p->StartDay(0).ok());
    for (size_t b = 0; b < p->NumBatchesToday(); ++b) {
      auto reqs = p->BatchRequests(b);
      ASSERT_TRUE(reqs.ok());
      std::vector<int64_t> all_zero(reqs->size(), 0);
      ASSERT_TRUE(p->CommitAssignment(b, all_zero).ok());
    }
  }
  auto o1 = p1->EndDay();
  auto o2 = p2->EndDay();
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_DOUBLE_EQ(o1->realized_utility, o2->realized_utility);
  ASSERT_EQ(o1->trials.size(), o2->trials.size());
  for (size_t i = 0; i < o1->trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(o1->trials[i].signup_rate, o2->trials[i].signup_rate);
  }
}

}  // namespace
}  // namespace lacb
