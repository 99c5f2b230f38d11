// Unit tests for the baseline policies (Top-K, CTop-K, RR, KM, AN) and the
// shared SolveBatchAssignment helper.

#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "lacb/core/policy_suite.h"
#include "lacb/matching/assignment.h"
#include "lacb/policy/an_policy.h"
#include "lacb/policy/km_policy.h"
#include "lacb/policy/recommendation.h"
#include "lacb/sim/platform.h"

namespace lacb::policy {
namespace {

sim::DatasetConfig TinyConfig() {
  sim::DatasetConfig cfg;
  cfg.name = "tiny";
  cfg.num_brokers = 25;
  cfg.num_requests = 100;
  cfg.num_days = 2;
  cfg.imbalance = 0.2;  // 5 per batch
  cfg.seed = 11;
  return cfg;
}

// Runs one batch of one day through a policy, returning the assignment and
// the utility matrix used.
struct BatchRun {
  std::vector<int64_t> assignment;
  la::Matrix utility;
  std::vector<double> workloads;
};

BatchRun RunOneBatch(AssignmentPolicy* policy, sim::Platform* platform) {
  EXPECT_TRUE(policy->Initialize(*platform).ok());
  EXPECT_TRUE(platform->StartDay(0).ok());
  EXPECT_TRUE(policy->BeginDay(*platform, 0).ok());
  BatchRun run;
  run.utility = platform->BatchUtility(0).value();
  run.workloads = platform->workloads_today();
  auto requests = platform->BatchRequests(0).value();
  BatchInput input;
  input.requests = &requests;
  input.utility = &run.utility;
  input.workloads = &run.workloads;
  auto a = policy->AssignBatch(input);
  EXPECT_TRUE(a.ok());
  run.assignment = *a;
  return run;
}

TEST(SolveBatchAssignmentTest, EmptyEligibleLeavesUnmatched) {
  la::Matrix u(3, 5, 0.5);
  auto a = SolveBatchAssignment(u, {}, true);
  ASSERT_TRUE(a.ok());
  for (int64_t v : *a) EXPECT_EQ(v, matching::kUnmatched);
}

TEST(SolveBatchAssignmentTest, RespectsEligibleSet) {
  la::Matrix u(2, 4);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 4; ++c) u(r, c) = 0.1 * static_cast<double>(c);
  }
  // Only brokers 0 and 2 are eligible; broker 3 (highest utility) is not.
  auto a = SolveBatchAssignment(u, {0, 2}, true);
  ASSERT_TRUE(a.ok());
  std::set<int64_t> used((*a).begin(), (*a).end());
  EXPECT_TRUE(used.count(0));
  EXPECT_TRUE(used.count(2));
  EXPECT_FALSE(used.count(3));
}

TEST(SolveBatchAssignmentTest, PaddedAndRectangularAgreeOnTotal) {
  Rng rng(1);
  la::Matrix u(4, 9);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 9; ++c) u(r, c) = rng.Uniform();
  }
  std::vector<size_t> all(9);
  std::iota(all.begin(), all.end(), 0);
  auto padded = SolveBatchAssignment(u, all, true);
  auto rect = SolveBatchAssignment(u, all, false);
  ASSERT_TRUE(padded.ok());
  ASSERT_TRUE(rect.ok());
  auto total = [&](const std::vector<int64_t>& a) {
    double t = 0.0;
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r] >= 0) t += u(r, static_cast<size_t>(a[r]));
    }
    return t;
  };
  EXPECT_NEAR(total(*padded), total(*rect), 1e-9);
}

TEST(SolveBatchAssignmentTest, MoreRequestsThanBrokers) {
  la::Matrix u(4, 2, 0.0);
  u(0, 0) = 0.9;
  u(1, 1) = 0.8;
  u(2, 0) = 0.1;
  u(3, 1) = 0.1;
  auto a = SolveBatchAssignment(u, {0, 1}, true);
  ASSERT_TRUE(a.ok());
  // Exactly two requests served, by distinct brokers, maximizing weight.
  size_t served = 0;
  std::set<int64_t> used;
  for (int64_t v : *a) {
    if (v != matching::kUnmatched) {
      ++served;
      used.insert(v);
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(used.size(), 2u);
  EXPECT_EQ((*a)[0], 0);
  EXPECT_EQ((*a)[1], 1);
}

// Both solve orientations reject an eligible column past the utility width
// with OutOfRange: more eligible brokers than requests (column gather) and
// fewer (transposed gather).
TEST(SolveBatchAssignmentTest, RejectsOutOfRangeEligibleColumn) {
  la::Matrix u(2, 3, 0.5);
  for (bool pad : {false, true}) {
    auto wide = SolveBatchAssignment(u, {0, 1, 3}, pad);
    ASSERT_FALSE(wide.ok());
    EXPECT_EQ(wide.status().code(), StatusCode::kOutOfRange);
    auto narrow = SolveBatchAssignment(u, {3}, pad);
    ASSERT_FALSE(narrow.ok());
    EXPECT_EQ(narrow.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(TopKPolicyTest, NamesAndConcentration) {
  TopKPolicy top1(1, 1);
  TopKPolicy top3(3, 2);
  EXPECT_EQ(top1.name(), "Top-1");
  EXPECT_EQ(top3.name(), "Top-3");

  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  BatchRun run = RunOneBatch(&top1, &*platform);
  // Top-1 sends each request to its argmax broker (no capacity filter, so
  // duplicates across requests are allowed).
  for (size_t r = 0; r < run.assignment.size(); ++r) {
    ASSERT_GE(run.assignment[r], 0);
    size_t chosen = static_cast<size_t>(run.assignment[r]);
    for (size_t c = 0; c < run.utility.cols(); ++c) {
      EXPECT_LE(run.utility(r, c), run.utility(r, chosen) + 1e-12);
    }
  }
}

TEST(TopKPolicyTest, Top3PicksWithinTopThree) {
  TopKPolicy top3(3, 3);
  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  BatchRun run = RunOneBatch(&top3, &*platform);
  for (size_t r = 0; r < run.assignment.size(); ++r) {
    ASSERT_GE(run.assignment[r], 0);
    size_t chosen = static_cast<size_t>(run.assignment[r]);
    // The chosen broker is within the top-3 utilities of the row.
    size_t strictly_better = 0;
    for (size_t c = 0; c < run.utility.cols(); ++c) {
      if (run.utility(r, c) > run.utility(r, chosen) + 1e-12) {
        ++strictly_better;
      }
    }
    EXPECT_LT(strictly_better, 3u);
  }
}

TEST(ConstrainedTopKPolicyTest, ExcludesSaturatedBrokers) {
  ConstrainedTopKPolicy policy(1, /*city_capacity=*/2.0, 4);
  la::Matrix u(1, 3);
  u(0, 0) = 0.9;
  u(0, 1) = 0.5;
  u(0, 2) = 0.2;
  std::vector<double> w = {2.0, 0.0, 0.0};  // broker 0 at capacity
  std::vector<sim::Request> reqs(1);
  BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;
  auto a = policy.AssignBatch(input);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], 1);  // best among the unsaturated
}

TEST(ConstrainedTopKPolicyTest, AllSaturatedLeavesUnassigned) {
  ConstrainedTopKPolicy policy(1, 1.0, 5);
  la::Matrix u(2, 2, 0.5);
  std::vector<double> w = {1.0, 1.0};
  std::vector<sim::Request> reqs(2);
  BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;
  auto a = policy.AssignBatch(input);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)[0], -1);
  EXPECT_EQ((*a)[1], -1);
}

TEST(RandomizedRecommendationTest, RequiresInitializeAndSpreadsLoad) {
  RandomizedRecommendationPolicy rr(6);
  la::Matrix u(1, 3, 0.5);
  std::vector<double> w(3, 0.0);
  std::vector<sim::Request> reqs(1);
  BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;
  EXPECT_FALSE(rr.AssignBatch(input).ok());  // not initialized

  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE(rr.Initialize(*platform).ok());
  // Over many single-request batches, RR must touch many distinct brokers.
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    la::Matrix uu(1, 25, 0.5);
    std::vector<double> ww(25, 0.0);
    BatchInput in;
    in.requests = &reqs;
    in.utility = &uu;
    in.workloads = &ww;
    auto a = rr.AssignBatch(in);
    ASSERT_TRUE(a.ok());
    seen.insert((*a)[0]);
  }
  EXPECT_GT(seen.size(), 10u);
}

TEST(KmPolicyTest, AssignsDistinctBrokersPerBatch) {
  KmPolicy km;
  EXPECT_EQ(km.name(), "KM");
  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  BatchRun run = RunOneBatch(&km, &*platform);
  std::set<int64_t> used;
  for (int64_t v : run.assignment) {
    ASSERT_NE(v, matching::kUnmatched);
    EXPECT_TRUE(used.insert(v).second) << "broker reused within a batch";
  }
}

TEST(KmPolicyTest, MaximizesBatchUtilityVsGreedy) {
  KmPolicy km;
  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  BatchRun run = RunOneBatch(&km, &*platform);
  double km_total = 0.0;
  for (size_t r = 0; r < run.assignment.size(); ++r) {
    km_total += run.utility(r, static_cast<size_t>(run.assignment[r]));
  }
  auto greedy = matching::GreedyAssignment(run.utility);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(km_total + 1e-9, greedy->total_weight);
}

TEST(AnPolicyTest, LifecycleAndCapacityFiltering) {
  core::PolicySuiteConfig suite;
  AnPolicyConfig cfg;
  cfg.bandit = core::DefaultBanditConfig(TinyConfig(), 9);
  auto an = AnPolicy::Create(cfg);
  ASSERT_TRUE(an.ok());
  EXPECT_EQ((*an)->name(), "AN");

  // AssignBatch before BeginDay fails.
  la::Matrix u(1, 3, 0.5);
  std::vector<double> w(3, 0.0);
  std::vector<sim::Request> reqs(1);
  BatchInput input;
  input.requests = &reqs;
  input.utility = &u;
  input.workloads = &w;
  EXPECT_FALSE((*an)->AssignBatch(input).ok());

  auto platform = sim::Platform::Create(TinyConfig());
  ASSERT_TRUE(platform.ok());
  BatchRun run = RunOneBatch(an->get(), &*platform);
  // Every assignment points at a real broker.
  for (int64_t v : run.assignment) {
    if (v != matching::kUnmatched) {
      EXPECT_LT(v, static_cast<int64_t>(platform->num_brokers()));
    }
  }
}

}  // namespace
}  // namespace lacb::policy
