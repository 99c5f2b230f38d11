// Unit tests for lacb/capacity: the personalized (layer-transfer) estimator
// pool.

#include <cmath>

#include <gtest/gtest.h>

#include "lacb/capacity/personalized_estimator.h"
#include "lacb/common/rng.h"

namespace lacb::capacity {
namespace {

PersonalizedEstimatorConfig MakeConfig() {
  PersonalizedEstimatorConfig c;
  c.bandit.arm_values = {10.0, 20.0, 30.0};
  c.bandit.context_dim = 2;
  c.bandit.hidden_sizes = {8, 4};
  c.bandit.alpha = 0.05;
  c.bandit.lambda = 0.01;
  c.bandit.batch_size = 4;
  c.bandit.train_epochs = 30;
  c.bandit.learning_rate = 0.05;
  c.bandit.value_scale = 1.0 / 30.0;
  c.bandit.seed = 1;
  c.personalization_threshold = 5;
  c.base_training_passes = 1;
  return c;
}

TEST(PersonalizedEstimatorTest, CreateValidation) {
  EXPECT_FALSE(PersonalizedCapacityEstimator::Create(MakeConfig(), 0).ok());
  auto cfg = MakeConfig();
  cfg.bandit.arm_values.clear();
  EXPECT_FALSE(PersonalizedCapacityEstimator::Create(cfg, 3).ok());
}

TEST(PersonalizedEstimatorTest, EstimateUsesBaseBeforePersonalization) {
  auto pool = PersonalizedCapacityEstimator::Create(MakeConfig(), 3);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->personalized_count(), 0u);
  EXPECT_FALSE(pool->IsPersonalized(0));
  auto c = pool->Estimate(0, {0.5, 0.5});
  ASSERT_TRUE(c.ok());
  // The estimate is one of the candidate arms.
  EXPECT_TRUE(*c == 10.0 || *c == 20.0 || *c == 30.0);
  EXPECT_FALSE(pool->Estimate(99, {0.5, 0.5}).ok());
  EXPECT_FALSE(pool->Update(99, {0.5, 0.5}, 10.0, 0.1).ok());
}

TEST(PersonalizedEstimatorTest, PersonalizesAfterThreshold) {
  auto pool = PersonalizedCapacityEstimator::Create(MakeConfig(), 2);
  ASSERT_TRUE(pool.ok());
  la::Vector ctx = {0.3, 0.7};
  // 5 observations (threshold) while the base has trained at least once
  // (batch_size 4 forces a pass after 4 updates).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool->Update(0, ctx, 20.0, 0.2).ok());
  }
  EXPECT_TRUE(pool->IsPersonalized(0));
  EXPECT_FALSE(pool->IsPersonalized(1));
  EXPECT_EQ(pool->personalized_count(), 1u);
  // Further updates flow into the personal bandit without error.
  ASSERT_TRUE(pool->Update(0, ctx, 20.0, 0.25).ok());
  auto c = pool->Estimate(0, ctx);
  ASSERT_TRUE(c.ok());
}

TEST(PersonalizedEstimatorTest, PersonalBanditsDivergeAcrossBrokers) {
  // Two brokers with opposite knees must end up with different estimates
  // once personalized; a single generic model would average them.
  auto cfg = MakeConfig();
  cfg.personalization_threshold = 6;
  auto pool = PersonalizedCapacityEstimator::Create(cfg, 2);
  ASSERT_TRUE(pool.ok());
  Rng rng(2);
  la::Vector ctx_a = {0.1, 0.2};
  la::Vector ctx_b = {0.9, 0.8};
  auto reward_a = [](double w) {  // knee at 10
    return w <= 10.0 ? 0.3 : 0.3 / (1.0 + 0.5 * (w - 10.0));
  };
  auto reward_b = [](double w) {  // knee at 30
    return w <= 30.0 ? 0.3 : 0.05;
  };
  for (int day = 0; day < 60; ++day) {
    double ca = pool->Estimate(0, ctx_a).value();
    double cb = pool->Estimate(1, ctx_b).value();
    double wa = std::min(ca, 35.0);
    double wb = std::min(cb, 35.0);
    ASSERT_TRUE(pool
                    ->Update(0, ctx_a, wa,
                             reward_a(wa) + rng.Normal(0.0, 0.01))
                    .ok());
    ASSERT_TRUE(pool
                    ->Update(1, ctx_b, wb,
                             reward_b(wb) + rng.Normal(0.0, 0.01))
                    .ok());
  }
  EXPECT_TRUE(pool->IsPersonalized(0));
  EXPECT_TRUE(pool->IsPersonalized(1));
  // Broker 1's sustained reward at high workloads should pull its estimate
  // at/above broker 0's.
  double final_a = pool->Estimate(0, ctx_a).value();
  double final_b = pool->Estimate(1, ctx_b).value();
  EXPECT_LE(final_a, final_b);
}

}  // namespace
}  // namespace lacb::capacity
