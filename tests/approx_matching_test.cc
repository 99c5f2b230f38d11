// Tests for the parallel approximate matching subsystem
// (lacb/matching/approx): the deterministic ½-approx b-matching solver
// (oracle equality with the sequential locally-dominant matching,
// thread-count invariance, the ½-approximation bound against exact KM on
// capacitated instances) and the shared scoring kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lacb/common/rng.h"
#include "lacb/matching/approx/parallel_bmatch.h"
#include "lacb/matching/approx/scoring.h"
#include "lacb/matching/assignment.h"

namespace lacb::matching::approx {
namespace {

// Float-rounded uniform weights so the double (exact) and float32 (approx)
// score domains hold the identical values.
la::Matrix RandomFloatWeights(size_t rows, size_t cols, Rng* rng) {
  la::Matrix w(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      w(r, c) = static_cast<double>(static_cast<float>(rng->Uniform()));
    }
  }
  return w;
}

// Sequential oracle: the locally-dominant matching, i.e. greedy edge
// acceptance in the solver's strict total order (float32 score desc,
// column asc, row asc). The parallel solver must reproduce it exactly.
struct OracleResult {
  std::vector<int64_t> col_of_row;
  double total_weight = 0.0;
};

OracleResult GreedyOracle(const ScoreMatrix& scores,
                          const std::vector<int64_t>& capacities) {
  struct Edge {
    float score;
    size_t col;
    size_t row;
  };
  std::vector<Edge> edges;
  for (size_t r = 0; r < scores.rows; ++r) {
    for (size_t c = 0; c < scores.cols; ++c) {
      float s = scores.At(r, c);
      if (!std::isnan(s)) edges.push_back({s, c, r});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.col != b.col) return a.col < b.col;
    return a.row < b.row;
  });
  OracleResult out;
  out.col_of_row.assign(scores.rows, kUnmatched);
  std::vector<int64_t> remaining = capacities;
  for (const Edge& e : edges) {
    if (out.col_of_row[e.row] != kUnmatched) continue;
    if (remaining[e.col] <= 0) continue;
    out.col_of_row[e.row] = static_cast<int64_t>(e.col);
    --remaining[e.col];
  }
  // Same fixed (column, row) accumulation order as the solver.
  for (size_t c = 0; c < scores.cols; ++c) {
    for (size_t r = 0; r < scores.rows; ++r) {
      if (out.col_of_row[r] == static_cast<int64_t>(c)) {
        out.total_weight += static_cast<double>(scores.At(r, c));
      }
    }
  }
  return out;
}

ScoreMatrix RandomScores(size_t rows, size_t cols, Rng* rng) {
  ScoreMatrix s;
  s.Reset(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      s.At(r, c) = static_cast<float>(rng->Uniform());
    }
  }
  return s;
}

std::vector<int64_t> RandomCaps(size_t cols, int max_cap, Rng* rng) {
  std::vector<int64_t> caps(cols);
  for (size_t c = 0; c < cols; ++c) {
    caps[c] = rng->UniformInt(0, max_cap);
  }
  return caps;
}

void ExpectPhasesWithinTotal(const SolveStats& stats) {
  EXPECT_GE(stats.total_seconds, 0.0);
  EXPECT_GE(stats.phase_build_seconds, 0.0);
  EXPECT_GE(stats.phase_search_seconds, 0.0);
  EXPECT_GE(stats.phase_update_seconds, 0.0);
  EXPECT_LE(stats.phase_build_seconds + stats.phase_search_seconds +
                stats.phase_update_seconds,
            stats.total_seconds + 1e-6);
}

TEST(ParallelBMatchTest, TrivialCases) {
  ScoreMatrix empty;
  empty.Reset(0, 0);
  auto r = ParallelBMatch(empty, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->col_of_row.empty());
  EXPECT_EQ(r->total_weight, 0.0);

  // All capacities zero: nothing can match.
  ScoreMatrix s;
  s.Reset(2, 2);
  s.At(0, 0) = 1.0f;
  s.At(1, 1) = 1.0f;
  auto z = ParallelBMatch(s, {0, 0});
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z->col_of_row[0], kUnmatched);
  EXPECT_EQ(z->col_of_row[1], kUnmatched);
}

TEST(ParallelBMatchTest, ValidatesInputs) {
  ScoreMatrix s;
  s.Reset(2, 3);
  EXPECT_FALSE(ParallelBMatch(s, {1, 1}).ok());      // wrong cap count
  EXPECT_FALSE(ParallelBMatch(s, {1, -1, 1}).ok());  // negative cap
}

TEST(ParallelBMatchTest, NanScoresAreMissingEdges) {
  ScoreMatrix s;
  s.Reset(2, 2);
  s.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  s.At(0, 1) = 0.3f;
  s.At(1, 0) = 0.9f;
  s.At(1, 1) = std::numeric_limits<float>::quiet_NaN();
  auto r = ParallelBMatch(s, {1, 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->col_of_row[0], 1);
  EXPECT_EQ(r->col_of_row[1], 0);
}

TEST(ParallelBMatchTest, NegativeScoresAreMatchable) {
  // The exact path also commits negative refined utilities, so the approx
  // path must not silently drop them.
  ScoreMatrix s;
  s.Reset(2, 2);
  s.At(0, 0) = -1.0f;
  s.At(0, 1) = -3.0f;
  s.At(1, 0) = -2.0f;
  s.At(1, 1) = -1.5f;
  auto r = ParallelBMatch(s, {1, 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->col_of_row[0], 0);
  EXPECT_EQ(r->col_of_row[1], 1);
  EXPECT_NEAR(r->total_weight, -2.5, 1e-6);
}

TEST(ParallelBMatchTest, MatchesSequentialOracleOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 30));
    size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 12));
    ScoreMatrix s = RandomScores(rows, cols, &rng);
    std::vector<int64_t> caps = RandomCaps(cols, 4, &rng);
    OracleResult oracle = GreedyOracle(s, caps);
    for (size_t threads : {1u, 3u}) {
      BMatchOptions opts;
      opts.num_threads = threads;
      auto r = ParallelBMatch(s, caps, opts);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->col_of_row, oracle.col_of_row)
          << "trial=" << trial << " threads=" << threads;
      EXPECT_DOUBLE_EQ(r->total_weight, oracle.total_weight);
    }
  }
}

TEST(ParallelBMatchTest, BitIdenticalAcrossThreadCountsAndRuns) {
  Rng rng(12);
  ScoreMatrix s = RandomScores(300, 40, &rng);
  std::vector<int64_t> caps = RandomCaps(40, 6, &rng);
  BMatchOptions base;
  base.num_threads = 1;
  auto reference = ParallelBMatch(s, caps, base);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (int run = 0; run < 3; ++run) {
      BMatchOptions opts;
      opts.num_threads = threads;
      auto r = ParallelBMatch(s, caps, opts);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->col_of_row, reference->col_of_row)
          << "threads=" << threads << " run=" << run;
      // Bit-identical objective, not just approximately equal.
      EXPECT_EQ(r->total_weight, reference->total_weight);
    }
  }
}

TEST(ParallelBMatchTest, HalfApproximationBoundAgainstExactKm) {
  // The locally-dominant matching is a ½-approximation of the maximum
  // weight b-matching (non-negative weights). Exact optimum via KM on the
  // column-expanded instance (capacity k → k unit columns; zero-padded so
  // rows <= cols).
  Rng rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 2 + static_cast<size_t>(rng.UniformInt(0, 8));
    size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 5));
    la::Matrix w = RandomFloatWeights(rows, cols, &rng);
    std::vector<int64_t> caps = RandomCaps(cols, 3, &rng);

    size_t expanded_cols = 0;
    for (int64_t c : caps) expanded_cols += static_cast<size_t>(c);
    size_t padded = std::max(rows, expanded_cols);
    la::Matrix expanded(rows, padded);  // zero-filled
    size_t at = 0;
    for (size_t c = 0; c < cols; ++c) {
      for (int64_t k = 0; k < caps[c]; ++k, ++at) {
        for (size_t r = 0; r < rows; ++r) expanded(r, at) = w(r, c);
      }
    }
    auto km = MaxWeightAssignment(expanded);
    ASSERT_TRUE(km.ok());

    auto bx = ParallelBMatch(w, caps);
    ASSERT_TRUE(bx.ok());
    EXPECT_GE(bx->total_weight, 0.5 * km->total_weight - 1e-5)
        << "trial=" << trial;
    EXPECT_LE(bx->total_weight, km->total_weight + 1e-5);
  }
}

TEST(ParallelBMatchTest, FillsSolveStats) {
  Rng rng(14);
  ScoreMatrix s = RandomScores(64, 16, &rng);
  std::vector<int64_t> caps(16, 2);
  SolveStats stats;
  BMatchOptions opts;
  opts.num_threads = 2;
  auto r = ParallelBMatch(s, caps, opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.solver, "bmatch");
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.rows, 64u);
  EXPECT_EQ(stats.cols, 16u);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_EQ(stats.rounds, r->rounds);
  EXPECT_EQ(stats.proposals, r->proposals);
  EXPECT_EQ(stats.steals, r->steals);
  size_t matched = 0;
  for (int64_t c : r->col_of_row) matched += (c != kUnmatched) ? 1 : 0;
  EXPECT_EQ(stats.augmenting_paths, matched);
  EXPECT_GE(stats.proposals, matched);  // every match took >= 1 proposal
  EXPECT_DOUBLE_EQ(stats.objective, r->total_weight);
  ExpectPhasesWithinTotal(stats);
}

TEST(ScoringTest, GatherKernelsMatchManualLoops) {
  Rng rng(15);
  la::Matrix u = RandomFloatWeights(7, 11, &rng);
  std::vector<size_t> eligible = {1, 4, 5, 9};
  std::vector<double> delta = {0.0, -0.25, 0.5, -1.0};

  la::Matrix plain;
  ASSERT_TRUE(GatherColumns(u, eligible, &plain).ok());
  la::Matrix transposed;
  ASSERT_TRUE(GatherColumnsTransposed(u, eligible, &transposed).ok());
  la::Matrix refined;
  ASSERT_TRUE(GatherRefinedColumns(u, eligible, delta, &refined).ok());
  for (size_t r = 0; r < u.rows(); ++r) {
    for (size_t i = 0; i < eligible.size(); ++i) {
      const double base = u(r, eligible[i]);
      EXPECT_EQ(plain(r, i), base);
      EXPECT_EQ(transposed(i, r), base);
      EXPECT_EQ(refined(r, i), base + delta[i]);
    }
  }

  ScoreMatrix converted;
  ToScoreMatrix(refined, &converted);
  for (size_t r = 0; r < refined.rows(); ++r) {
    for (size_t c = 0; c < refined.cols(); ++c) {
      EXPECT_EQ(converted.At(r, c), static_cast<float>(refined(r, c)));
    }
  }

  la::Matrix out;
  EXPECT_FALSE(GatherColumns(u, {11}, &out).ok());  // out-of-range column
  EXPECT_FALSE(GatherRefinedColumns(u, eligible, {0.0}, &out).ok());
}

}  // namespace
}  // namespace lacb::matching::approx
