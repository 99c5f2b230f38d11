// Integration tests: the engine driving full policy × dataset runs, the
// metric helpers, and the paper's headline qualitative claims on a small
// instance (capacity-aware policies beat Top-K; Top-K overloads top
// brokers).

#include <gtest/gtest.h>

#include "lacb/core/engine.h"
#include "lacb/core/metrics.h"
#include "lacb/core/policy_suite.h"

namespace lacb::core {
namespace {

sim::DatasetConfig SmallConfig(uint64_t seed = 42) {
  sim::DatasetConfig cfg;
  cfg.name = "small";
  cfg.num_brokers = 40;
  cfg.num_requests = 600;
  cfg.num_days = 4;
  cfg.imbalance = 0.25;  // 10 per batch, 15 batches/day
  cfg.capacity_candidates = {5, 10, 15, 25, 40};
  cfg.seed = seed;
  return cfg;
}

TEST(EngineTest, RejectsNullPolicy) {
  EXPECT_FALSE(RunPolicy(SmallConfig(), nullptr).ok());
}

TEST(EngineTest, RunProducesConsistentAccounting) {
  policy::TopKPolicy top1(1, 5);
  auto run = RunPolicy(SmallConfig(), &top1);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->policy, "Top-1");
  EXPECT_EQ(run->dataset, "small");
  EXPECT_EQ(run->daily_utility.size(), 4u);
  EXPECT_EQ(run->broker_utility.size(), 40u);
  // Totals equal the sum of the per-day series and per-broker shares.
  double daily_sum = 0.0;
  for (double d : run->daily_utility) daily_sum += d;
  EXPECT_NEAR(daily_sum, run->total_utility, 1e-9);
  double broker_sum = 0.0;
  for (double b : run->broker_utility) broker_sum += b;
  EXPECT_NEAR(broker_sum, run->total_utility, 1e-9);
  // All 600 requests were served (Top-K always assigns).
  double served = 0.0;
  for (double r : run->broker_requests) served += r;
  EXPECT_DOUBLE_EQ(served, 600.0);
  EXPECT_GT(run->policy_seconds, 0.0);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  policy::TopKPolicy a(1, 5);
  policy::TopKPolicy b(1, 5);
  auto run_a = RunPolicy(SmallConfig(), &a);
  auto run_b = RunPolicy(SmallConfig(), &b);
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());
  EXPECT_DOUBLE_EQ(run_a->total_utility, run_b->total_utility);
  EXPECT_EQ(run_a->broker_requests, run_b->broker_requests);
}

TEST(EngineTest, TopKOverloadsTopBrokers) {
  policy::TopKPolicy top1(1, 5);
  auto run = RunPolicy(SmallConfig(), &top1);
  ASSERT_TRUE(run.ok());
  // The overload phenomenon (paper Sec. II-B): the busiest broker's mean
  // workload is far above the city mean, and overload days occur.
  EXPECT_GT(MaxToMeanRatio(run->broker_mean_workload), 3.0);
  EXPECT_GT(run->overloaded_broker_days, 0u);
}

TEST(EngineTest, CapacityAwareKmBeatsTopK) {
  // Even without learned capacities, global assignment (KM) must beat
  // Top-1 on realized utility because it spreads load.
  policy::TopKPolicy top1(1, 5);
  policy::KmPolicy km;
  auto run_top = RunPolicy(SmallConfig(), &top1);
  auto run_km = RunPolicy(SmallConfig(), &km);
  ASSERT_TRUE(run_top.ok());
  ASSERT_TRUE(run_km.ok());
  EXPECT_GT(run_km->total_utility, run_top->total_utility);
}

TEST(EngineTest, LacbBeatsTopKAndReducesOverload) {
  PolicySuiteConfig suite;
  suite.seed = 77;
  auto lacb = policy::LacbPolicy::Create(
      DefaultLacbConfig(SmallConfig(), suite, false));
  ASSERT_TRUE(lacb.ok());
  policy::TopKPolicy top1(1, 5);
  auto run_lacb = RunPolicy(SmallConfig(), lacb->get());
  auto run_top = RunPolicy(SmallConfig(), &top1);
  ASSERT_TRUE(run_lacb.ok());
  ASSERT_TRUE(run_top.ok());
  EXPECT_GT(run_lacb->total_utility, run_top->total_utility);
  EXPECT_LT(run_lacb->overloaded_broker_days,
            run_top->overloaded_broker_days);
}

TEST(PolicySuiteTest, BuildsFullSuiteInPaperOrder) {
  PolicySuiteConfig suite;
  auto policies = MakePolicySuite(SmallConfig(), suite);
  ASSERT_TRUE(policies.ok());
  ASSERT_EQ(policies->size(), 9u);
  EXPECT_EQ((*policies)[0]->name(), "Top-1");
  EXPECT_EQ((*policies)[1]->name(), "Top-3");
  EXPECT_EQ((*policies)[2]->name(), "RR");
  EXPECT_EQ((*policies)[3]->name(), "CTop-1");
  EXPECT_EQ((*policies)[4]->name(), "CTop-3");
  EXPECT_EQ((*policies)[5]->name(), "KM");
  EXPECT_EQ((*policies)[6]->name(), "AN");
  EXPECT_EQ((*policies)[7]->name(), "LACB");
  EXPECT_EQ((*policies)[8]->name(), "LACB-Opt");
}

TEST(PolicySuiteTest, ExcludeCubicDropsSlowPolicies) {
  PolicySuiteConfig suite;
  suite.include_cubic = false;
  auto policies = MakePolicySuite(SmallConfig(), suite);
  ASSERT_TRUE(policies.ok());
  ASSERT_EQ(policies->size(), 6u);
  EXPECT_EQ((*policies)[5]->name(), "LACB-Opt");
}

TEST(MetricsTest, CompareBrokerUtility) {
  auto stats = CompareBrokerUtility({1.0, 2.0, 0.0, 3.0},
                                    {0.5, 2.5, 0.0, 3.0});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->considered, 3u);  // the all-zero broker is excluded
  EXPECT_NEAR(stats->improved_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats->worsened_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_FALSE(CompareBrokerUtility({1.0}, {1.0, 2.0}).ok());
}

TEST(MetricsTest, GiniCoefficient) {
  // Perfect equality.
  EXPECT_NEAR(GiniCoefficient({1.0, 1.0, 1.0, 1.0}), 0.0, 1e-12);
  // Full concentration on one holder approaches (n-1)/n.
  EXPECT_NEAR(GiniCoefficient({0.0, 0.0, 0.0, 8.0}), 0.75, 1e-12);
  // Known two-point case: {1, 3} -> G = 1/4.
  EXPECT_NEAR(GiniCoefficient({1.0, 3.0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0.0, 0.0}), 0.0);
}

TEST(MetricsTest, TopNAndRatios) {
  std::vector<double> v = {5.0, 1.0, 3.0, 2.0};
  auto top2 = TopNDescending(v, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0], 5.0);
  EXPECT_DOUBLE_EQ(top2[1], 3.0);
  EXPECT_DOUBLE_EQ(MaxToMeanRatio({2.0, 2.0, 8.0}), 2.0);
  EXPECT_DOUBLE_EQ(MaxToMeanRatio({}), 0.0);
  auto cum = CumulativeSeries({1.0, 2.0, 3.0});
  EXPECT_EQ(cum, (std::vector<double>{1.0, 3.0, 6.0}));
}

}  // namespace
}  // namespace lacb::core
