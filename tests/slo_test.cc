// Unit tests for the performance-attribution plane primitives: SLO
// burn-rate math (multi-window gating, window edges, budget exhaustion,
// recovery hysteresis) and the build-info exposition preamble.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "lacb/common/cpu.h"
#include "lacb/obs/build_info.h"
#include "lacb/obs/slo.h"

namespace lacb::obs {
namespace {

using std::chrono::seconds;

SloSpec BaseSpec() {
  SloSpec spec;
  spec.name = "test.latency";
  spec.objective = 0.99;
  spec.short_window = seconds(60);   // 1s buckets
  spec.long_window = seconds(600);
  spec.recovery_hold = seconds(60);
  return spec;
}

TEST(SloTrackerTest, CreateValidatesSpec) {
  EXPECT_TRUE(SloTracker::Create(BaseSpec()).ok());

  SloSpec bad = BaseSpec();
  bad.name.clear();
  EXPECT_FALSE(SloTracker::Create(bad).ok());

  bad = BaseSpec();
  bad.objective = 1.0;
  EXPECT_FALSE(SloTracker::Create(bad).ok());
  bad.objective = 0.0;
  EXPECT_FALSE(SloTracker::Create(bad).ok());

  bad = BaseSpec();
  bad.long_window = bad.short_window;  // must be strictly longer
  EXPECT_FALSE(SloTracker::Create(bad).ok());

  bad = BaseSpec();
  bad.fast_burn_threshold = bad.slow_burn_threshold;  // must be > slow
  EXPECT_FALSE(SloTracker::Create(bad).ok());

  bad = BaseSpec();
  bad.recovery_hold = seconds(-1);
  EXPECT_FALSE(SloTracker::Create(bad).ok());
}

TEST(SloTrackerTest, NoEventsEvaluatesOkWithFullBudget) {
  auto tracker = SloTracker::Create(BaseSpec());
  ASSERT_TRUE(tracker.ok());
  SloEvaluation eval = (*tracker)->Evaluate();
  EXPECT_EQ(eval.state, BurnState::kOk);
  EXPECT_DOUBLE_EQ(eval.burn_rate_short, 0.0);
  EXPECT_DOUBLE_EQ(eval.burn_rate_long, 0.0);
  EXPECT_DOUBLE_EQ(eval.budget_remaining, 1.0);
  EXPECT_EQ(eval.good_long + eval.bad_long, 0u);
}

TEST(SloTrackerTest, BurnRateIsBadFractionOverBudget) {
  auto tracker = SloTracker::Create(BaseSpec());
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  // 1% bad against a 1% budget: burning exactly at the sustainable rate.
  for (int i = 0; i < 99; ++i) (*tracker)->RecordAt(true, t0);
  (*tracker)->RecordAt(false, t0);
  SloEvaluation eval = (*tracker)->EvaluateAt(t0);
  EXPECT_NEAR(eval.burn_rate_short, 1.0, 1e-9);
  EXPECT_NEAR(eval.burn_rate_long, 1.0, 1e-9);
  EXPECT_NEAR(eval.budget_remaining, 0.0, 1e-9);
  EXPECT_EQ(eval.state, BurnState::kOk);  // 1.0 < slow threshold
  EXPECT_EQ(eval.good_long, 99u);
  EXPECT_EQ(eval.bad_long, 1u);
}

TEST(SloTrackerTest, SlowBurnWhenBothWindowsExceedSlowThreshold) {
  auto tracker = SloTracker::Create(BaseSpec());
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  // 5% bad over a 1% budget: burn 5.0, between slow (3.0) and fast (14.4).
  for (int i = 0; i < 95; ++i) (*tracker)->RecordAt(true, t0);
  for (int i = 0; i < 5; ++i) (*tracker)->RecordAt(false, t0);
  SloEvaluation eval = (*tracker)->EvaluateAt(t0);
  EXPECT_NEAR(eval.burn_rate_short, 5.0, 1e-9);
  EXPECT_EQ(eval.state, BurnState::kSlowBurn);
}

TEST(SloTrackerTest, SpikeDilutedInLongWindowStaysQuiet) {
  auto tracker = SloTracker::Create(BaseSpec());
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  // Long history of good events spread across the long window...
  for (int s = 0; s < 500; ++s) {
    for (int i = 0; i < 20; ++i) (*tracker)->RecordAt(true, t0 + seconds(s));
  }
  // ...then a short all-bad burst in the newest bucket.
  const auto t1 = t0 + seconds(500);
  for (int i = 0; i < 50; ++i) (*tracker)->RecordAt(false, t1);
  SloEvaluation eval = (*tracker)->EvaluateAt(t1);
  // Short window is hot (50 bad vs ~1200 good in 60s is > 3x budget)...
  EXPECT_GT(eval.burn_rate_short, eval.burn_rate_long);
  EXPECT_GE(eval.burn_rate_short, 3.0);
  // ...but the long window dilutes it below the slow threshold, so the
  // multi-window condition holds the alert back.
  EXPECT_LT(eval.burn_rate_long, 3.0);
  EXPECT_EQ(eval.state, BurnState::kOk);
}

TEST(SloTrackerTest, AgedOutIncidentStaysQuiet) {
  SloSpec spec = BaseSpec();
  spec.recovery_hold = seconds(0);  // isolate the window gating
  auto tracker = SloTracker::Create(spec);
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  for (int i = 0; i < 100; ++i) (*tracker)->RecordAt(false, t0);
  // 2 minutes later the burst has aged out of the 60s short window; only
  // the long window still sees it.
  const auto t1 = t0 + seconds(120);
  for (int i = 0; i < 10; ++i) (*tracker)->RecordAt(true, t1);
  SloEvaluation eval = (*tracker)->EvaluateAt(t1);
  EXPECT_DOUBLE_EQ(eval.burn_rate_short, 0.0);
  EXPECT_GE(eval.burn_rate_long, 14.4);
  EXPECT_EQ(eval.state, BurnState::kOk);
}

TEST(SloTrackerTest, WindowEdgeIsInclusiveTrailing) {
  SloSpec spec = BaseSpec();
  spec.objective = 0.5;  // single bad event burns 2.0 — below slow (3.0)
  auto tracker = SloTracker::Create(spec);
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  (*tracker)->RecordAt(false, t0);
  // 59s later the event is still inside the trailing 60s window...
  SloEvaluation eval = (*tracker)->EvaluateAt(t0 + seconds(59));
  EXPECT_NEAR(eval.burn_rate_short, 2.0, 1e-9);
  // ...one bucket later it has aged out of the short window exactly.
  eval = (*tracker)->EvaluateAt(t0 + seconds(60));
  EXPECT_DOUBLE_EQ(eval.burn_rate_short, 0.0);
  EXPECT_NEAR(eval.burn_rate_long, 2.0, 1e-9);  // still in the long one
}

TEST(SloTrackerTest, BudgetExhaustionGoesNegative) {
  auto tracker = SloTracker::Create(BaseSpec());
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  for (int i = 0; i < 100; ++i) (*tracker)->RecordAt(false, t0);
  SloEvaluation eval = (*tracker)->EvaluateAt(t0);
  // All-bad against a 1% budget: burn 100x, budget deeply overspent.
  EXPECT_NEAR(eval.burn_rate_long, 100.0, 1e-9);
  EXPECT_LT(eval.budget_remaining, 0.0);
  EXPECT_EQ(eval.state, BurnState::kFastBurn);
}

TEST(SloTrackerTest, RecoveryHoldsStateUntilHysteresisExpires) {
  SloSpec spec = BaseSpec();
  spec.recovery_hold = seconds(120);
  auto tracker = SloTracker::Create(spec);
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  for (int i = 0; i < 100; ++i) (*tracker)->RecordAt(false, t0);
  EXPECT_EQ((*tracker)->EvaluateAt(t0).state, BurnState::kFastBurn);

  // 65s on, the burst left the short window and plenty of good traffic
  // arrived: the *condition* is clear, but the hold keeps the state up.
  const auto t1 = t0 + seconds(65);
  for (int i = 0; i < 10000; ++i) (*tracker)->RecordAt(true, t1);
  SloEvaluation eval = (*tracker)->EvaluateAt(t1);
  EXPECT_DOUBLE_EQ(eval.burn_rate_short, 0.0);
  EXPECT_EQ(eval.state, BurnState::kFastBurn) << "hysteresis must hold";

  // Past the hold, the state decays to what the conditions support.
  eval = (*tracker)->EvaluateAt(t0 + seconds(200));
  EXPECT_EQ(eval.state, BurnState::kOk);
}

TEST(SloTrackerTest, ReEscalationResetsTheHold) {
  SloSpec spec = BaseSpec();
  spec.recovery_hold = seconds(100);
  auto tracker = SloTracker::Create(spec);
  ASSERT_TRUE(tracker.ok());
  const auto t0 = SloTracker::Clock::now();
  for (int i = 0; i < 100; ++i) (*tracker)->RecordAt(false, t0);
  EXPECT_EQ((*tracker)->EvaluateAt(t0).state, BurnState::kFastBurn);
  // A second burst 50s in refreshes last_breach: 120s after the first
  // burst is only 70s after the second, so the state must still be held.
  const auto t1 = t0 + seconds(50);
  for (int i = 0; i < 100; ++i) (*tracker)->RecordAt(false, t1);
  EXPECT_EQ((*tracker)->EvaluateAt(t1).state, BurnState::kFastBurn);
  const auto t2 = t0 + seconds(120);
  for (int i = 0; i < 10000; ++i) (*tracker)->RecordAt(true, t2);
  EXPECT_EQ((*tracker)->EvaluateAt(t2).state, BurnState::kFastBurn);
  EXPECT_EQ((*tracker)->EvaluateAt(t0 + seconds(155)).state, BurnState::kOk);
}

// --- Build info ---

TEST(BuildInfoTest, ExpositionPreambleCarriesIdentity) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_FALSE(info.version.empty());
  EXPECT_FALSE(info.commit.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_EQ(info.simd, SimdTierName());
  EXPECT_GT(UptimeSeconds(), 0.0);

  std::string text = RenderBuildInfoMetrics();
  EXPECT_NE(text.find("lacb_build_info{"), std::string::npos);
  EXPECT_NE(text.find("version=\"" + info.version + "\""), std::string::npos);
  EXPECT_NE(text.find("simd=\"" + info.simd + "\""), std::string::npos);
  EXPECT_NE(text.find("lacb_uptime_seconds"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace lacb::obs
