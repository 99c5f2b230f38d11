// Unit tests for lacb/stats: descriptive stats, Welch's t-test, KDE.

#include <cmath>

#include <gtest/gtest.h>

#include "lacb/common/rng.h"
#include "lacb/stats/descriptive.h"
#include "lacb/stats/hypothesis.h"
#include "lacb/stats/kde.h"

namespace lacb::stats {
namespace {

TEST(OnlineStatsTest, MeanAndVariance) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeEqualsPooled) {
  Rng rng(11);
  OnlineStats pooled;
  OnlineStats a;
  OnlineStats b;
  for (int i = 0; i < 100; ++i) {
    double v = rng.Normal(5.0, 2.0);
    pooled.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0).value(), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5).value(), 2.5);
}

TEST(PercentileTest, RejectsBadInput) {
  EXPECT_FALSE(Percentile({}, 0.5).ok());
  EXPECT_FALSE(Percentile({1.0}, 1.5).ok());
  EXPECT_FALSE(Percentile({1.0}, -0.1).ok());
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}).value(), 2.0);
  EXPECT_FALSE(Mean({}).ok());
}

TEST(BinMeansTest, AssignsToCorrectBins) {
  std::vector<double> xs = {0.5, 1.5, 1.6, 9.0};
  std::vector<double> ys = {10.0, 20.0, 30.0, 40.0};
  auto r = BinMeans(xs, ys, 0.0, 10.0, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->means[0], 10.0);
  EXPECT_DOUBLE_EQ(r->means[1], 25.0);
  EXPECT_EQ(r->counts[1], 2u);
  EXPECT_DOUBLE_EQ(r->means[9], 40.0);
  EXPECT_EQ(r->counts[5], 0u);
  EXPECT_DOUBLE_EQ(r->bin_centers[0], 0.5);
}

TEST(BinMeansTest, IgnoresOutOfRange) {
  auto r = BinMeans({-1.0, 11.0}, {5.0, 5.0}, 0.0, 10.0, 5);
  ASSERT_TRUE(r.ok());
  for (size_t c : r->counts) EXPECT_EQ(c, 0u);
}

TEST(BinMeansTest, RejectsBadInput) {
  EXPECT_FALSE(BinMeans({1.0}, {1.0, 2.0}, 0.0, 1.0, 2).ok());
  EXPECT_FALSE(BinMeans({1.0}, {1.0}, 1.0, 1.0, 2).ok());
  EXPECT_FALSE(BinMeans({1.0}, {1.0}, 0.0, 1.0, 0).ok());
}

TEST(IncompleteBetaTest, KnownValues) {
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.3).value(), 0.3, 1e-10);
  // I_x(2,2) = 3x² − 2x³.
  double x = 0.4;
  EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 2.0, x).value(),
              3 * x * x - 2 * x * x * x, 1e-10);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(3.0, 4.0, 0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(3.0, 4.0, 1.0).value(), 1.0);
}

TEST(IncompleteBetaTest, RejectsBadDomain) {
  EXPECT_FALSE(RegularizedIncompleteBeta(0.0, 1.0, 0.5).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(1.0, 1.0, 1.5).ok());
}

TEST(StudentTCdfTest, SymmetricAndKnown) {
  EXPECT_NEAR(StudentTCdf(0.0, 5.0).value(), 0.5, 1e-10);
  // t with df=1 is Cauchy: CDF(1) = 3/4.
  EXPECT_NEAR(StudentTCdf(1.0, 1.0).value(), 0.75, 1e-8);
  double c = StudentTCdf(1.7, 8.0).value();
  EXPECT_NEAR(StudentTCdf(-1.7, 8.0).value(), 1.0 - c, 1e-10);
}

TEST(WelchTest, DetectsObviousDifference) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 60; ++i) {
    a.push_back(rng.Normal(0.20, 0.05));  // healthy sign-up rates
    b.push_back(rng.Normal(0.08, 0.05));  // overloaded sign-up rates
  }
  auto r = WelchTTest(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->t_statistic, 5.0);
  EXPECT_LT(r->p_value, 1e-4);  // the paper's p < 0.0001 regime
}

TEST(WelchTest, NoDifferenceGivesLargePValue) {
  Rng rng(4);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.Normal(0.15, 0.05));
    b.push_back(rng.Normal(0.15, 0.05));
  }
  auto r = WelchTTest(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->p_value, 0.01);
}

TEST(WelchTest, RejectsDegenerateInput) {
  EXPECT_FALSE(WelchTTest({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(WelchTTest({1.0, 1.0}, {2.0, 2.0}).ok());  // zero variance
}

TEST(Kde2DTest, ModeNearDataCenter) {
  Rng rng(6);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 300; ++i) {
    xs.push_back(rng.Normal(15.0, 2.0));  // accustomed workload
    ys.push_back(rng.Normal(0.22, 0.03));  // sign-up rate
  }
  auto kde = GaussianKde2D::Fit(xs, ys);
  ASSERT_TRUE(kde.ok());
  auto mode = kde->FindMode(0.0, 40.0, 0.0, 0.5, 60);
  EXPECT_NEAR(mode.x, 15.0, 2.0);
  EXPECT_NEAR(mode.y, 0.22, 0.05);
}

TEST(Kde2DTest, IntegratesToOne) {
  Rng rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(rng.Normal(0.0, 1.0));
    ys.push_back(rng.Normal(0.0, 2.0));
  }
  auto kde = GaussianKde2D::Fit(xs, ys);  // Silverman bandwidths
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth_y(), kde->bandwidth_x());
  double integral = 0.0;
  int steps = 120;
  double dx = 12.0 / steps;
  double dy = 24.0 / steps;
  for (int i = 0; i < steps; ++i) {
    for (int j = 0; j < steps; ++j) {
      integral += kde->Density(-6.0 + (i + 0.5) * dx, -12.0 + (j + 0.5) * dy) *
                  dx * dy;
    }
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde2DTest, RejectsMismatchedSamples) {
  EXPECT_FALSE(GaussianKde2D::Fit({1.0}, {}).ok());
  EXPECT_FALSE(GaussianKde2D::Fit({}, {}).ok());
}

}  // namespace
}  // namespace lacb::stats
