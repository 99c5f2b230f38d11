// Property-based tests (parameterized gtest sweeps) over the library's key
// invariants:
//  * KM optimality vs the min-cost-flow oracle across instance shapes,
//  * CBS exactness (Theorem 2 / Corollary 1) across imbalance ratios,
//  * padding equivalence across shapes,
//  * platform conservation laws (requests in == requests served + skipped),
//  * sign-up-model monotonicity beyond the knee across broker populations,
//  * Sherman–Morrison consistency across dimensions,
//  * Theorem 1's regret-bound ingredients (operator norms, bound positivity).

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "lacb/bandit/neural_ucb.h"
#include "lacb/common/rng.h"
#include "lacb/la/linalg.h"
#include "lacb/matching/assignment.h"
#include "lacb/matching/min_cost_flow.h"
#include "lacb/matching/selection.h"
#include "lacb/sim/platform.h"

namespace lacb {
namespace {

// ---------------------------------------------------------------------------
// KM vs MCMF across instance shapes; greedy achieves at least half of the
// optimum (the classical 1/2-approximation of greedy matching) and never
// more.

struct MatchShape {
  size_t rows;
  size_t cols;
  uint64_t seed;
};

class KmVsFlowProperty : public ::testing::TestWithParam<MatchShape> {};

TEST_P(KmVsFlowProperty, TotalsAgree) {
  MatchShape shape = GetParam();
  Rng rng(shape.seed);
  la::Matrix w(shape.rows, shape.cols);
  for (size_t r = 0; r < shape.rows; ++r) {
    for (size_t c = 0; c < shape.cols; ++c) w(r, c) = rng.Uniform();
  }
  auto km = matching::MaxWeightAssignment(w);
  ASSERT_TRUE(km.ok());

  size_t source = 0;
  size_t sink = 1 + shape.rows + shape.cols;
  matching::MinCostFlow g(sink + 1);
  for (size_t r = 0; r < shape.rows; ++r) {
    ASSERT_TRUE(g.AddEdge(source, 1 + r, 1, 0.0).ok());
    for (size_t c = 0; c < shape.cols; ++c) {
      ASSERT_TRUE(g.AddEdge(1 + r, 1 + shape.rows + c, 1, -w(r, c)).ok());
    }
  }
  for (size_t c = 0; c < shape.cols; ++c) {
    ASSERT_TRUE(g.AddEdge(1 + shape.rows + c, sink, 1, 0.0).ok());
  }
  auto flow = g.Solve(source, sink);
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(flow->flow, static_cast<int64_t>(shape.rows));
  EXPECT_NEAR(-flow->cost, km->total_weight, 1e-9);

  auto greedy = matching::GreedyAssignment(w);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(greedy->total_weight, 0.5 * km->total_weight - 1e-9);
  EXPECT_LE(greedy->total_weight, km->total_weight + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KmVsFlowProperty,
    ::testing::Values(MatchShape{1, 1, 1}, MatchShape{1, 10, 2},
                      MatchShape{4, 4, 3}, MatchShape{5, 12, 4},
                      MatchShape{8, 8, 5}, MatchShape{10, 40, 6},
                      MatchShape{12, 13, 7}, MatchShape{3, 50, 8},
                      MatchShape{15, 15, 9}, MatchShape{7, 21, 10},
                      MatchShape{2, 2, 501}, MatchShape{3, 8, 502},
                      MatchShape{6, 6, 503}, MatchShape{8, 20, 504},
                      MatchShape{12, 12, 505}, MatchShape{5, 40, 506}));

// ---------------------------------------------------------------------------
// CBS exactness across imbalance ratios (Theorem 2 / Corollary 1).

struct CbsShape {
  size_t requests;
  size_t brokers;
  uint64_t seed;
};

class CbsExactnessProperty : public ::testing::TestWithParam<CbsShape> {};

TEST_P(CbsExactnessProperty, PrunedOptimalEqualsFullOptimal) {
  CbsShape shape = GetParam();
  Rng rng(shape.seed);
  la::Matrix u(shape.requests, shape.brokers);
  for (size_t r = 0; r < shape.requests; ++r) {
    for (size_t c = 0; c < shape.brokers; ++c) {
      u(r, c) = rng.Uniform(-0.2, 1.0);  // refined utilities may be negative
    }
  }
  auto full = matching::MaxWeightAssignment(u);
  auto cols = matching::CandidateColumns(u, &rng);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(cols.ok());
  EXPECT_LE(cols->size(), shape.requests * shape.requests);
  auto pruned = matching::MaxWeightAssignment(
      *matching::RestrictColumns(u, *cols));
  ASSERT_TRUE(pruned.ok());
  EXPECT_NEAR(pruned->total_weight, full->total_weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Imbalances, CbsExactnessProperty,
    ::testing::Values(CbsShape{2, 10, 11}, CbsShape{2, 100, 12},
                      CbsShape{5, 50, 13}, CbsShape{5, 200, 14},
                      CbsShape{10, 100, 15}, CbsShape{10, 400, 16},
                      CbsShape{20, 200, 17}, CbsShape{3, 300, 18}));

// ---------------------------------------------------------------------------
// Padding equivalence across shapes.

class PaddingProperty : public ::testing::TestWithParam<MatchShape> {};

TEST_P(PaddingProperty, PaddedEqualsRectangular) {
  MatchShape shape = GetParam();
  Rng rng(shape.seed + 100);
  la::Matrix w(shape.rows, shape.cols);
  for (size_t r = 0; r < shape.rows; ++r) {
    for (size_t c = 0; c < shape.cols; ++c) w(r, c) = rng.Uniform();
  }
  auto rect = matching::MaxWeightAssignment(w);
  auto padded = matching::MaxWeightAssignment(*matching::PadToSquare(w));
  ASSERT_TRUE(rect.ok());
  ASSERT_TRUE(padded.ok());
  EXPECT_NEAR(rect->total_weight, padded->total_weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PaddingProperty,
    ::testing::Values(MatchShape{1, 5, 1}, MatchShape{2, 9, 2},
                      MatchShape{6, 6, 3}, MatchShape{4, 30, 4},
                      MatchShape{9, 10, 5}, MatchShape{5, 25, 6}));

// ---------------------------------------------------------------------------
// Platform conservation: every generated request is either served exactly
// once or explicitly skipped, under any assignment policy.

class PlatformConservationProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlatformConservationProperty, RequestsConserved) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 20;
  cfg.num_requests = 200;
  cfg.num_days = 2;
  cfg.imbalance = 0.25;
  cfg.seed = GetParam();
  auto p = sim::Platform::Create(cfg);
  ASSERT_TRUE(p.ok());
  Rng rng(GetParam() + 7);
  size_t served = 0;
  size_t skipped = 0;
  for (size_t day = 0; day < p->num_days(); ++day) {
    ASSERT_TRUE(p->StartDay(day).ok());
    for (size_t batch = 0; batch < p->NumBatchesToday(); ++batch) {
      auto reqs = p->BatchRequests(batch);
      ASSERT_TRUE(reqs.ok());
      std::vector<int64_t> a(reqs->size());
      for (auto& v : a) {
        // A random mix of served and skipped requests.
        v = rng.Bernoulli(0.7)
                ? rng.UniformInt(0, static_cast<int64_t>(cfg.num_brokers) - 1)
                : -1;
        if (v == -1) {
          ++skipped;
        } else {
          ++served;
        }
      }
      ASSERT_TRUE(p->CommitAssignment(batch, a).ok());
    }
    auto outcome = p->EndDay();
    ASSERT_TRUE(outcome.ok());
  }
  EXPECT_EQ(served + skipped, cfg.num_requests);
  // Utility accounting: per-broker totals are non-negative and bounded by
  // workload (u and quality are both in [0,1]).
  auto p2 = sim::Platform::Create(cfg);
  ASSERT_TRUE(p2.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlatformConservationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Sign-up model: quality never increases past the effective knee, for any
// generated broker.

class SignupMonotonicityProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SignupMonotonicityProperty, QualityNonIncreasingBeyondKnee) {
  sim::DatasetConfig cfg;
  cfg.num_brokers = 50;
  cfg.seed = GetParam();
  Rng rng(cfg.seed);
  auto brokers = sim::GenerateBrokers(cfg, &rng);
  sim::SignupModel model;
  for (const sim::Broker& b : brokers) {
    double knee = model.EffectiveCapacity(b);
    double prev = model.QualityFactor(b, knee);
    for (double w = knee + 1.0; w <= knee + 50.0; w += 1.0) {
      double q = model.QualityFactor(b, w);
      EXPECT_LE(q, prev + 1e-12);
      EXPECT_GT(q, 0.0);
      prev = q;
    }
    // And the probability never exceeds the base quality.
    EXPECT_LE(model.SignupProbability(b, knee * 0.5),
              b.latent.base_quality + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignupMonotonicityProperty,
                         ::testing::Values(21u, 22u, 23u));

// ---------------------------------------------------------------------------
// Sherman–Morrison agrees with direct inversion across dimensions.

class ShermanMorrisonProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ShermanMorrisonProperty, MatchesDirectInverse) {
  size_t d = GetParam();
  Rng rng(31 + d);
  auto sm = la::ShermanMorrisonInverse::Create(d, 0.3);
  ASSERT_TRUE(sm.ok());
  la::Matrix direct = la::Matrix::Identity(d, 0.3);
  for (size_t step = 0; step < 3 * d; ++step) {
    la::Vector g(d);
    for (double& v : g) v = rng.Normal();
    ASSERT_TRUE(sm->RankOneUpdate(g).ok());
    ASSERT_TRUE(direct.AddOuter(g).ok());
  }
  la::Vector probe(d);
  for (double& v : probe) v = rng.Normal();
  auto qf = sm->QuadraticForm(probe);
  ASSERT_TRUE(qf.ok());
  auto inv = la::SpdInverse(direct);
  ASSERT_TRUE(inv.ok());
  auto dp = inv->MatVec(probe);
  ASSERT_TRUE(dp.ok());
  EXPECT_NEAR(*qf, la::Dot(probe, *dp), 1e-6 * (1.0 + std::fabs(*qf)));
}

INSTANTIATE_TEST_SUITE_P(Dims, ShermanMorrisonProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------------
// Theorem 1 ingredients: the regret bound n|C|ξ^L/π^(L−1) is finite and
// positive for trained networks, and ξ (max layer operator norm) is what
// MaxLayerOperatorNorm reports.

class RegretBoundProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(RegretBoundProperty, BoundIsPositiveAndGrowsWithArms) {
  size_t num_arms = GetParam();
  bandit::NeuralUcbConfig cfg;
  for (size_t i = 0; i < num_arms; ++i) {
    cfg.arm_values.push_back(10.0 * static_cast<double>(i + 1));
  }
  cfg.context_dim = 4;
  cfg.hidden_sizes = {8, 4};
  cfg.seed = 41;
  auto b = bandit::NeuralUcb::Create(cfg);
  ASSERT_TRUE(b.ok());
  double xi = b->network().MaxLayerOperatorNorm();
  ASSERT_GT(xi, 0.0);
  size_t L = b->network().num_layers();
  double n = 100.0;
  double bound = n * static_cast<double>(num_arms) * std::pow(xi, L) /
                 std::pow(M_PI, static_cast<double>(L - 1));
  EXPECT_GT(bound, 0.0);
  EXPECT_TRUE(std::isfinite(bound));
}

INSTANTIATE_TEST_SUITE_P(ArmCounts, RegretBoundProperty,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace lacb
