// Unit tests for lacb/matching: Kuhn–Munkres assignment (cross-checked
// against brute force and min-cost flow), padding equivalence (the paper's
// dummy-vertex construction), greedy, and the MCMF solver itself.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "kernel_lanes.h"
#include "lacb/common/rng.h"
#include "lacb/common/stopwatch.h"
#include "lacb/matching/assignment.h"
#include "lacb/matching/min_cost_flow.h"
#include "lacb/matching/solve_stats.h"
#include "lacb/obs/context.h"

namespace lacb::matching {
namespace {

la::Matrix RandomWeights(size_t rows, size_t cols, Rng* rng) {
  la::Matrix w(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) w(r, c) = rng->Uniform();
  }
  return w;
}

// The textbook kernel the production KM was rewritten from, kept verbatim
// as the oracle the rewrite must match bit for bit: it copies the weights
// into a negated cost matrix, scans every column each step and applies the
// dual update to all of them.
constexpr double kInf = std::numeric_limits<double>::infinity();

// Potential-based shortest-augmenting-path Kuhn–Munkres, minimizing total
// cost; rows are 1..n, columns 1..m, n <= m. Every row gets a column.
// Classic formulation (e.g. e-maxx); O(n²m). `scan_steps` (when non-null)
// accumulates the Dijkstra-like column scans — the quantity that actually
// grows cubically and that perf PRs need to watch. `stats` (when non-null)
// additionally collects phase timings and dual-update counts; both outputs
// are gated so the null path adds no clock reads to the inner loops.
Assignment SolveMinCost(const la::Matrix& cost, uint64_t* scan_steps,
                        SolveStats* stats) {
  size_t n = cost.rows();
  size_t m = cost.cols();
  const bool collect = stats != nullptr;
  uint64_t steps = 0;
  Stopwatch phase_sw;
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<size_t> p(m + 1, 0), way(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<bool> used(m + 1, false);
    uint64_t steps_before = steps;
    if (collect) phase_sw.Restart();
    do {
      ++steps;
      used[j0] = true;
      size_t i0 = p[j0];
      size_t j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    if (collect) {
      stats->phase_search_seconds += phase_sw.ElapsedSeconds();
      // Scan step s of this row applies a (u, v) dual adjustment to every
      // column marked used so far — exactly s of them — so a row that took
      // S steps performed S(S+1)/2 adjustments in total.
      uint64_t s = steps - steps_before;
      stats->dual_updates += s * (s + 1) / 2;
      phase_sw.Restart();
    }
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
    if (collect) {
      stats->phase_update_seconds += phase_sw.ElapsedSeconds();
      ++stats->augmenting_paths;
    }
  }
  if (collect) stats->iterations += steps;
  Assignment out;
  out.col_of_row.assign(n, kUnmatched);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) {
      out.col_of_row[p[j] - 1] = static_cast<int64_t>(j - 1);
      out.total_weight += cost(p[j] - 1, j - 1);
    }
  }
  if (scan_steps != nullptr) *scan_steps += steps;
  return out;
}

Assignment TextbookMaxWeight(const la::Matrix& weights, SolveStats* stats) {
  la::Matrix cost(weights.rows(), weights.cols());
  for (size_t i = 0; i < weights.rows(); ++i) {
    for (size_t j = 0; j < weights.cols(); ++j) {
      cost(i, j) = -weights(i, j);
    }
  }
  Assignment a = SolveMinCost(cost, nullptr, stats);
  a.total_weight = -a.total_weight;
  return a;
}

TEST(AssignmentTest, TrivialCases) {
  la::Matrix empty(0, 0);
  auto a = MaxWeightAssignment(empty);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->total_weight, 0.0);
  EXPECT_TRUE(a->col_of_row.empty());

  la::Matrix one(1, 1);
  one(0, 0) = 0.7;
  a = MaxWeightAssignment(one);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->col_of_row[0], 0);
  EXPECT_DOUBLE_EQ(a->total_weight, 0.7);
}

TEST(AssignmentTest, RejectsMoreRowsThanCols) {
  EXPECT_FALSE(MaxWeightAssignment(la::Matrix(3, 2)).ok());
  EXPECT_FALSE(PadToSquare(la::Matrix(3, 2)).ok());
  EXPECT_FALSE(BruteForceAssignment(la::Matrix(3, 2)).ok());
}

TEST(AssignmentTest, PaperWorkedExample) {
  // Fig. 7 of the paper: after refinement, u = [[0.25, 0.45], [0.4, 0.5]];
  // the optimal matching is {(b1,r2),(b2,r1)} = rows to cols {(0,1),(1,0)}.
  la::Matrix u(2, 2);
  u(0, 0) = 0.25;
  u(0, 1) = 0.45;
  u(1, 0) = 0.4;
  u(1, 1) = 0.5;
  auto a = MaxWeightAssignment(u);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->col_of_row[0], 1);
  EXPECT_EQ(a->col_of_row[1], 0);
  EXPECT_NEAR(a->total_weight, 0.85, 1e-12);
}

TEST(AssignmentTest, MatchesBruteForceOnRandomSquares) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 5));
    la::Matrix w = RandomWeights(n, n, &rng);
    auto km = MaxWeightAssignment(w);
    auto bf = BruteForceAssignment(w);
    ASSERT_TRUE(km.ok());
    ASSERT_TRUE(bf.ok());
    EXPECT_NEAR(km->total_weight, bf->total_weight, 1e-9) << "n=" << n;
  }
}

TEST(AssignmentTest, MatchesBruteForceOnRectangles) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 4));
    size_t cols = rows + static_cast<size_t>(rng.UniformInt(0, 4));
    la::Matrix w = RandomWeights(rows, cols, &rng);
    auto km = MaxWeightAssignment(w);
    auto bf = BruteForceAssignment(w);
    ASSERT_TRUE(km.ok());
    ASSERT_TRUE(bf.ok());
    EXPECT_NEAR(km->total_weight, bf->total_weight, 1e-9);
  }
}

TEST(AssignmentTest, HandlesNegativeWeights) {
  // Refined utilities (Eq. 15) can be negative; every row must still match.
  la::Matrix w(2, 2);
  w(0, 0) = -1.0;
  w(0, 1) = -3.0;
  w(1, 0) = -2.0;
  w(1, 1) = -1.5;
  auto a = MaxWeightAssignment(w);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->total_weight, -2.5, 1e-12);  // (-1.0) + (-1.5)
  EXPECT_EQ(a->col_of_row[0], 0);
  EXPECT_EQ(a->col_of_row[1], 1);
}

// Dummy padding (the paper's balanced-graph construction) must not change
// the optimal total weight over the real rows.
TEST(AssignmentTest, PaddingPreservesOptimalValue) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    size_t rows = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
    size_t cols = rows + 1 + static_cast<size_t>(rng.UniformInt(0, 4));
    la::Matrix w = RandomWeights(rows, cols, &rng);
    auto rect = MaxWeightAssignment(w);
    auto padded_m = PadToSquare(w);
    ASSERT_TRUE(padded_m.ok());
    auto padded = MaxWeightAssignment(*padded_m);
    ASSERT_TRUE(rect.ok());
    ASSERT_TRUE(padded.ok());
    // Dummy rows have zero weight, so totals agree.
    EXPECT_NEAR(rect->total_weight, padded->total_weight, 1e-9);
  }
}

TEST(AssignmentTest, AllowSkipDropsNegativeEdges) {
  la::Matrix w(2, 2);
  w(0, 0) = 0.5;
  w(0, 1) = -0.2;
  w(1, 0) = -0.4;
  w(1, 1) = -0.1;
  auto a = MaxWeightAssignmentAllowSkip(w);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->col_of_row[0], 0);
  EXPECT_EQ(a->col_of_row[1], kUnmatched);
  EXPECT_NEAR(a->total_weight, 0.5, 1e-12);
}

TEST(AssignmentTest, GreedyIsFeasibleAndNeverBeatsOptimal) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    la::Matrix w = RandomWeights(5, 8, &rng);
    auto greedy = GreedyAssignment(w);
    auto opt = MaxWeightAssignment(w);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(opt.ok());
    EXPECT_LE(greedy->total_weight, opt->total_weight + 1e-9);
    // Feasibility: no column reused.
    std::vector<bool> used(8, false);
    for (int64_t c : greedy->col_of_row) {
      ASSERT_NE(c, kUnmatched);
      EXPECT_FALSE(used[static_cast<size_t>(c)]);
      used[static_cast<size_t>(c)] = true;
    }
  }
}

TEST(AssignmentTest, RejectsNonFiniteWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN row, a −inf row and a single +inf entry each used to keep the
  // scan from finding a free column, so the solve never returned.
  la::Matrix nan_row(2, 3, 0.5);
  for (size_t c = 0; c < 3; ++c) nan_row(1, c) = nan;
  la::Matrix neg_inf_row(2, 3, 0.5);
  for (size_t c = 0; c < 3; ++c) neg_inf_row(0, c) = -inf;
  la::Matrix pos_inf(2, 3, 0.5);
  pos_inf(1, 2) = inf;
  for (const la::Matrix* w : {&nan_row, &neg_inf_row, &pos_inf}) {
    SolveStats stats;
    auto a = MaxWeightAssignment(*w, &stats);
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(stats.solves, 0u);
    auto skip = MaxWeightAssignmentAllowSkip(*w);
    ASSERT_FALSE(skip.ok());
    EXPECT_EQ(skip.status().code(), StatusCode::kInvalidArgument);
  }
}

// Fills a rows × cols matrix: uniform [0, 1), uniform [-1, 0.5), or
// integers in [-2, 3] (many ties).
la::Matrix Fill(size_t rows, size_t cols, int kind, Rng* rng) {
  la::Matrix w(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      switch (kind) {
        case 0: w(r, c) = rng->Uniform(); break;
        case 1: w(r, c) = rng->Uniform(-1.0, 0.5); break;
        default: w(r, c) = static_cast<double>(rng->UniformInt(-2, 3));
      }
    }
  }
  return w;
}

// The offline padded shape, rectangles, squares, transposes, negative
// weights and integer weights with many ties.
std::vector<la::Matrix> TextbookCases() {
  Rng rng(20260917);
  // All zeros: the objective is a signed zero, whose sign must match too.
  std::vector<la::Matrix> cases = {la::Matrix(3, 5, 0.0)};
  for (int kind = 0; kind < 3; ++kind) {
    for (int trial = 0; trial < 6; ++trial) {
      // The offline exact shape: a few real rows padded to |B| brokers.
      size_t real = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
      size_t brokers = static_cast<size_t>(rng.UniformInt(8, 111));
      cases.push_back(PadToSquare(Fill(real, brokers, kind, &rng)).value());
      size_t rows = static_cast<size_t>(rng.UniformInt(1, 24));
      size_t cols = rows + static_cast<size_t>(rng.UniformInt(0, 40));
      cases.push_back(Fill(rows, cols, kind, &rng));
      cases.push_back(Fill(rows, rows, kind, &rng));
      cases.push_back(Fill(cols, rows, kind, &rng).Transposed());
    }
  }
  return cases;
}

// The production kernel returns exactly what the textbook kernel returns:
// same columns, same objective bits, same step counts.
void ExpectMatchesTextbook(const la::Matrix& w, const std::string& what) {
  SolveStats want_stats;
  SolveStats got_stats;
  Assignment want = TextbookMaxWeight(w, &want_stats);
  auto got = MaxWeightAssignment(w, &got_stats);
  ASSERT_TRUE(got.ok()) << what;
  EXPECT_EQ(got->col_of_row, want.col_of_row) << what;
  EXPECT_EQ(
      std::memcmp(&got->total_weight, &want.total_weight, sizeof(double)), 0)
      << what << ": " << got->total_weight << " vs " << want.total_weight;
  EXPECT_EQ(got_stats.iterations, want_stats.iterations) << what;
  EXPECT_EQ(got_stats.augmenting_paths, want_stats.augmenting_paths) << what;
  EXPECT_EQ(got_stats.dual_updates, want_stats.dual_updates) << what;
}

// The KM scan runs at every kernel width this CPU supports (8, 4 and 2
// lanes) and must match the textbook kernel byte for byte at each.
class KmKernelLanesTest : public KernelLanesTest {};
LACB_INSTANTIATE_KERNEL_LANES(KmKernelLanesTest);

TEST_P(KmKernelLanesTest, MatchesTextbookBitForBit) {
  std::vector<la::Matrix> cases = TextbookCases();
  Rng rng(77);
  // Every column count up to 19 puts a partial last vector at each width.
  for (size_t cols = 1; cols <= 19; ++cols) {
    for (size_t rows : {size_t{1}, (cols + 1) / 2, cols}) {
      for (int kind = 0; kind < 3; ++kind) {
        cases.push_back(Fill(rows, cols, kind, &rng));
      }
    }
  }
  // The served saturation shape: 64 requests over a pruned broker set.
  cases.push_back(Fill(64, 736, 0, &rng));
  cases.push_back(Fill(64, 736, 2, &rng));
  // Signed zeros only: every tie is between -0.0 and +0.0.
  la::Matrix zeros(9, 13);
  for (double& x : zeros.data()) x = rng.Uniform() < 0.5 ? -0.0 : 0.0;
  cases.push_back(zeros);
  cases.push_back(Fill(17, 23, 2, &rng));
  // Every row prefers column 0, then 1, …: each new row displaces a chain
  // of earlier ones.
  la::Matrix chains(30, 37);
  for (size_t r = 0; r < chains.rows(); ++r) {
    for (size_t c = 0; c < chains.cols(); ++c) {
      chains(r, c) = 40.0 - static_cast<double>(c) + 1e-3 * rng.Uniform();
    }
  }
  cases.push_back(chains);
  for (size_t t = 0; t < cases.size(); ++t) {
    const la::Matrix& w = cases[t];
    ExpectMatchesTextbook(w, "case " + std::to_string(t) + " (" +
                                 std::to_string(w.rows()) + "x" +
                                 std::to_string(w.cols()) + ")");
  }
}

TEST_P(KmKernelLanesTest, RefusesNonFiniteWeightsAnywhere) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  // 19 columns leave a partial last vector at every width; the last
  // position lies in it.
  const std::pair<size_t, size_t> where[] = {{0, 3}, {2, 10}, {4, 0}, {4, 18}};
  Rng rng(78);
  const la::Matrix good = Fill(5, 19, 0, &rng);
  for (double x : bad) {
    for (auto [r, c] : where) {
      la::Matrix w = good;
      w(r, c) = x;
      SolveStats stats;
      auto a = MaxWeightAssignment(w, &stats);
      ASSERT_FALSE(a.ok()) << x << " at " << r << "," << c;
      EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(a.status().message(),
                "MaxWeightAssignment requires finite weights");
      EXPECT_EQ(stats.solves, 0u);
      EXPECT_EQ(stats.iterations, 0u);
      // The refused solve leaves nothing behind for the next one.
      ExpectMatchesTextbook(good, "after a refused solve");
    }
  }
}

// The KM counters are cached per thread. Two telemetry scopes in a row
// (the second registry may take the first one's address) must each count
// only their own solves.
TEST(AssignmentTest, CountersFollowEachTelemetryScope) {
  Rng rng(79);
  const la::Matrix w = RandomWeights(3, 5, &rng);
  for (uint64_t solves = 1; solves <= 3; ++solves) {
    obs::ScopedTelemetry telemetry;
    SolveStats stats;
    for (uint64_t s = 0; s < solves; ++s) {
      ASSERT_TRUE(MaxWeightAssignment(w, &stats).ok());
    }
    obs::MetricsSnapshot snap = telemetry.registry().Snapshot();
    EXPECT_EQ(snap.counters["matching.km.solves"], solves);
    EXPECT_EQ(snap.counters["matching.km.rows"], 3 * solves);
    EXPECT_EQ(snap.counters["matching.km.scan_steps"], stats.iterations);
  }
}

TEST(MinCostFlowTest, SimplePath) {
  MinCostFlow g(3);
  auto e0 = g.AddEdge(0, 1, 5, 1.0);
  auto e1 = g.AddEdge(1, 2, 3, 2.0);
  ASSERT_TRUE(e0.ok());
  ASSERT_TRUE(e1.ok());
  auto r = g.Solve(0, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 3);
  EXPECT_DOUBLE_EQ(r->cost, 9.0);
  EXPECT_EQ(g.FlowOn(*e0).value(), 3);
  EXPECT_EQ(g.FlowOn(*e1).value(), 3);
}

TEST(MinCostFlowTest, PrefersCheaperPath) {
  MinCostFlow g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 1, 0.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1, 0.0).ok());
  auto r = g.Solve(0, 3, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 1);
  EXPECT_DOUBLE_EQ(r->cost, 1.0);
}

TEST(MinCostFlowTest, HandlesNegativeCosts) {
  MinCostFlow g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 2, -5.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 2, 1.0).ok());
  auto r = g.Solve(0, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 2);
  EXPECT_DOUBLE_EQ(r->cost, -8.0);
}

TEST(MinCostFlowTest, Validation) {
  MinCostFlow g(2);
  EXPECT_FALSE(g.AddEdge(0, 5, 1, 0.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 1, -1, 0.0).ok());
  EXPECT_FALSE(g.Solve(0, 0).ok());
  EXPECT_FALSE(g.Solve(0, 9).ok());
  EXPECT_FALSE(g.FlowOn(42).ok());
}

// Independent oracle: assignment via min-cost flow must equal KM.
TEST(MinCostFlowTest, AgreesWithKuhnMunkresOnAssignment) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    size_t n = 3 + static_cast<size_t>(rng.UniformInt(0, 4));
    la::Matrix w = RandomWeights(n, n, &rng);
    auto km = MaxWeightAssignment(w);
    ASSERT_TRUE(km.ok());
    // Flow network: source(0) -> rows -> cols -> sink; costs negated.
    size_t source = 0;
    size_t sink = 1 + 2 * n;
    MinCostFlow g(sink + 1);
    for (size_t r = 0; r < n; ++r) {
      ASSERT_TRUE(g.AddEdge(source, 1 + r, 1, 0.0).ok());
      for (size_t c = 0; c < n; ++c) {
        ASSERT_TRUE(g.AddEdge(1 + r, 1 + n + c, 1, -w(r, c)).ok());
      }
    }
    for (size_t c = 0; c < n; ++c) {
      ASSERT_TRUE(g.AddEdge(1 + n + c, sink, 1, 0.0).ok());
    }
    auto r = g.Solve(source, sink);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->flow, static_cast<int64_t>(n));
    EXPECT_NEAR(-r->cost, km->total_weight, 1e-9);
  }
}

// Capacity-constrained extension: a broker column with capacity k can take
// up to k requests — MCMF solves what per-batch KM cannot express.
TEST(MinCostFlowTest, MultiCapacityAssignment) {
  // 3 requests, 1 broker with capacity 2 and 1 broker with capacity 1.
  // Utilities: broker0 = 1.0 each, broker1 = 0.4 each.
  MinCostFlow g(7);  // 0 src, 1-3 requests, 4-5 brokers, 6 sink
  for (size_t r = 1; r <= 3; ++r) {
    ASSERT_TRUE(g.AddEdge(0, r, 1, 0.0).ok());
    ASSERT_TRUE(g.AddEdge(r, 4, 1, -1.0).ok());
    ASSERT_TRUE(g.AddEdge(r, 5, 1, -0.4).ok());
  }
  ASSERT_TRUE(g.AddEdge(4, 6, 2, 0.0).ok());
  ASSERT_TRUE(g.AddEdge(5, 6, 1, 0.0).ok());
  auto r = g.Solve(0, 6);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flow, 3);
  EXPECT_NEAR(-r->cost, 2.4, 1e-12);  // 1.0 + 1.0 + 0.4
}

// --- SolveStats introspection invariants across all four backends ---

void ExpectPhasesWithinTotal(const SolveStats& stats) {
  EXPECT_GE(stats.phase_build_seconds, 0.0);
  EXPECT_GE(stats.phase_search_seconds, 0.0);
  EXPECT_GE(stats.phase_update_seconds, 0.0);
  // Phases are disjoint slices of the solve, so their sum never exceeds
  // the total (up to clock quantization).
  EXPECT_LE(stats.phase_build_seconds + stats.phase_search_seconds +
                stats.phase_update_seconds,
            stats.total_seconds + 1e-6);
}

TEST(SolveStatsTest, KuhnMunkresInvariants) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 3 + static_cast<size_t>(rng.UniformInt(0, 5));
    la::Matrix w = RandomWeights(n, n, &rng);
    SolveStats stats;
    auto a = MaxWeightAssignment(w, &stats);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(stats.solver, "km");
    EXPECT_EQ(stats.rows, n);
    EXPECT_EQ(stats.cols, n);
    EXPECT_EQ(stats.solves, 1u);
    // One augmenting path completes per row; every row takes at least one
    // column-scan step.
    EXPECT_EQ(stats.augmenting_paths, n);
    EXPECT_GE(stats.iterations, n);
    // The reported objective is the objective of the assignment actually
    // returned — not a bound, not a stale value.
    EXPECT_DOUBLE_EQ(stats.objective, a->total_weight);
    ExpectPhasesWithinTotal(stats);
  }
}

TEST(SolveStatsTest, CollectionDoesNotChangeTheSolution) {
  Rng rng(12);
  la::Matrix w = RandomWeights(7, 9, &rng);
  SolveStats stats;
  auto with = MaxWeightAssignment(w, &stats);
  auto without = MaxWeightAssignment(w);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->col_of_row, without->col_of_row);
  EXPECT_DOUBLE_EQ(with->total_weight, without->total_weight);
}

TEST(SolveStatsTest, MinCostFlowInvariants) {
  Rng rng(14);
  const size_t n = 5;
  la::Matrix w = RandomWeights(n, n, &rng);
  size_t source = 0;
  size_t sink = 1 + 2 * n;
  MinCostFlow g(sink + 1);
  for (size_t r = 0; r < n; ++r) {
    ASSERT_TRUE(g.AddEdge(source, 1 + r, 1, 0.0).ok());
    for (size_t c = 0; c < n; ++c) {
      ASSERT_TRUE(g.AddEdge(1 + r, 1 + n + c, 1, -w(r, c)).ok());
    }
  }
  for (size_t c = 0; c < n; ++c) {
    ASSERT_TRUE(g.AddEdge(1 + n + c, sink, 1, 0.0).ok());
  }
  SolveStats stats;
  auto r = g.Solve(source, sink, INT64_MAX, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.solver, "mcf");
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.rows, sink + 1);          // nodes
  EXPECT_GT(stats.cols, 0u);                // edges
  EXPECT_GT(stats.iterations, 0u);          // Dijkstra queue pops
  EXPECT_GE(stats.augmenting_paths, 1u);
  EXPECT_LE(stats.augmenting_paths, static_cast<uint64_t>(r->flow));
  EXPECT_DOUBLE_EQ(stats.objective, r->cost);
  ExpectPhasesWithinTotal(stats);
}

TEST(SolveStatsTest, MergeFoldsAcrossBackends) {
  SolveStats km;
  km.solver = "km";
  km.rows = 8;
  km.cols = 8;
  km.solves = 1;
  km.iterations = 20;
  km.augmenting_paths = 8;
  km.objective = 3.5;
  km.total_seconds = 0.5;
  SolveStats mcf;
  mcf.solver = "mcf";
  mcf.rows = 4;
  mcf.cols = 16;
  mcf.solves = 2;
  mcf.iterations = 5;
  mcf.augmenting_paths = 4;
  mcf.objective = 4.0;
  mcf.total_seconds = 0.25;

  SolveStats merged;
  merged.MergeFrom(km);
  EXPECT_EQ(merged.solver, "km");
  merged.MergeFrom(mcf);
  EXPECT_EQ(merged.solver, "mixed");
  EXPECT_EQ(merged.rows, 8u);   // componentwise max
  EXPECT_EQ(merged.cols, 16u);
  EXPECT_EQ(merged.solves, 3u);
  EXPECT_EQ(merged.iterations, 25u);
  EXPECT_EQ(merged.augmenting_paths, 12u);
  EXPECT_DOUBLE_EQ(merged.objective, 7.5);
  EXPECT_DOUBLE_EQ(merged.total_seconds, 0.75);
  // Merging an empty record is a no-op.
  merged.MergeFrom(SolveStats{});
  EXPECT_EQ(merged.solves, 3u);
  EXPECT_EQ(merged.solver, "mixed");
}

TEST(SolveStatsTest, MergeIsCommutativeAcrossAllFields) {
  // Worker threads fold their per-batch records into the service aggregate
  // in a nondeterministic order, so MergeFrom must commute — including the
  // approx-backend fields.
  SolveStats a;
  a.solver = "km";
  a.rows = 8;
  a.cols = 12;
  a.solves = 3;
  a.iterations = 100;
  a.augmenting_paths = 24;
  a.dual_updates = 7;
  a.objective = 1.25;
  a.rounds = 0;
  a.proposals = 0;
  a.steals = 0;
  a.total_seconds = 0.5;
  a.phase_build_seconds = 0.1;
  a.phase_search_seconds = 0.3;
  a.phase_update_seconds = 0.05;

  SolveStats b;
  b.solver = "bmatch";
  b.rows = 1024;
  b.cols = 128;
  b.solves = 2;
  b.iterations = 4096;
  b.augmenting_paths = 250;
  b.dual_updates = 0;
  b.objective = 88.0;
  b.rounds = 9;
  b.proposals = 4096;
  b.steals = 17;
  b.total_seconds = 0.125;
  b.phase_build_seconds = 0.02;
  b.phase_search_seconds = 0.09;
  b.phase_update_seconds = 0.01;

  SolveStats ab;
  ab.MergeFrom(a);
  ab.MergeFrom(b);
  SolveStats ba;
  ba.MergeFrom(b);
  ba.MergeFrom(a);

  EXPECT_EQ(ab.solver, ba.solver);
  EXPECT_EQ(ab.rows, ba.rows);
  EXPECT_EQ(ab.cols, ba.cols);
  EXPECT_EQ(ab.solves, ba.solves);
  EXPECT_EQ(ab.iterations, ba.iterations);
  EXPECT_EQ(ab.augmenting_paths, ba.augmenting_paths);
  EXPECT_EQ(ab.dual_updates, ba.dual_updates);
  EXPECT_DOUBLE_EQ(ab.objective, ba.objective);
  EXPECT_EQ(ab.rounds, ba.rounds);
  EXPECT_EQ(ab.proposals, ba.proposals);
  EXPECT_EQ(ab.steals, ba.steals);
  EXPECT_DOUBLE_EQ(ab.total_seconds, ba.total_seconds);
  EXPECT_DOUBLE_EQ(ab.phase_build_seconds, ba.phase_build_seconds);
  EXPECT_DOUBLE_EQ(ab.phase_search_seconds, ba.phase_search_seconds);
  EXPECT_DOUBLE_EQ(ab.phase_update_seconds, ba.phase_update_seconds);
  EXPECT_EQ(ab.rounds, 9u);
  EXPECT_EQ(ab.proposals, 4096u);
  EXPECT_EQ(ab.steals, 17u);
}

}  // namespace
}  // namespace lacb::matching
