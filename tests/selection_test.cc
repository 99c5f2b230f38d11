// Unit tests for lacb/matching/selection: the CBS quickselect (Alg. 3) and
// the Theorem-2 exactness guarantee (pruned assignment == full assignment).

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "kernel_lanes.h"
#include "lacb/common/rng.h"
#include "lacb/matching/assignment.h"
#include "lacb/matching/selection.h"

namespace lacb::matching {
namespace {

// Reference Alg. 3 in its plain allocating form, with fresh heavy/equal/
// light vectors each round. The buffer-reusing one in selection.cc must
// match it exactly: same indices in the same order, same Rng draws.
void OracleSelectIndices(const std::vector<double>& utilities,
                         std::vector<size_t> pool, size_t k, Rng* rng,
                         std::vector<size_t>* out) {
  while (k > 0) {
    if (pool.size() <= k) {
      out->insert(out->end(), pool.begin(), pool.end());
      return;
    }
    size_t pivot_pos = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    double p = utilities[pool[pivot_pos]];
    std::vector<size_t> heavy;
    std::vector<size_t> equal;
    std::vector<size_t> light;
    for (size_t idx : pool) {
      if (utilities[idx] > p) {
        heavy.push_back(idx);
      } else if (utilities[idx] < p) {
        light.push_back(idx);
      } else {
        equal.push_back(idx);
      }
    }
    if (heavy.size() >= k) {
      pool = std::move(heavy);
      continue;
    }
    out->insert(out->end(), heavy.begin(), heavy.end());
    k -= heavy.size();
    if (equal.size() >= k) {
      out->insert(out->end(), equal.begin(), equal.begin() + k);
      return;
    }
    out->insert(out->end(), equal.begin(), equal.end());
    k -= equal.size();
    pool = std::move(light);
  }
}

std::vector<size_t> OracleSelectTopK(const std::vector<double>& utilities,
                                     size_t k, Rng* rng) {
  std::vector<size_t> out;
  if (k == 0) return out;
  std::vector<size_t> pool(utilities.size());
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  OracleSelectIndices(utilities, std::move(pool), k, rng, &out);
  return out;
}

std::vector<size_t> OracleCandidateColumns(const la::Matrix& utility,
                                           Rng* rng) {
  std::vector<bool> keep(utility.cols(), false);
  std::vector<double> row(utility.cols());
  for (size_t r = 0; r < utility.rows(); ++r) {
    for (size_t c = 0; c < utility.cols(); ++c) row[c] = utility(r, c);
    for (size_t c : OracleSelectTopK(row, utility.rows(), rng)) keep[c] = true;
  }
  std::vector<size_t> out;
  for (size_t c = 0; c < utility.cols(); ++c) {
    if (keep[c]) out.push_back(c);
  }
  return out;
}

// Value families for the oracle comparisons: ties are where a partition's
// order decides which pivot a draw hits and which equal elements are kept,
// and a NaN is neither heavier nor lighter than any pivot.
enum class Values {
  kContinuous,
  kIntegerTied,
  kAllEqual,
  kNegative,
  kNonFinite
};

double Draw(Values kind, Rng* rng) {
  switch (kind) {
    case Values::kContinuous:
      return rng->Uniform();
    case Values::kIntegerTied:
      return static_cast<double>(rng->UniformInt(0, 4));
    case Values::kAllEqual:
      return 0.25;
    case Values::kNegative:
      return rng->Uniform(-1.0, -0.1);
    case Values::kNonFinite: {
      const double odd[] = {std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 0.0,
                            -0.0};
      int64_t pick = rng->UniformInt(0, 9);
      return pick < 5 ? odd[pick] : rng->Uniform();
    }
  }
  return 0.0;
}

constexpr Values kAllValues[] = {Values::kContinuous, Values::kIntegerTied,
                                 Values::kAllEqual, Values::kNegative,
                                 Values::kNonFinite};

// The CBS partition runs at every kernel width this CPU supports: AVX-512
// at 8 lanes, the scalar oracle loop at 4 and 2.
class SelectTopKLanesTest : public KernelLanesTest {};
LACB_INSTANTIATE_KERNEL_LANES(SelectTopKLanesTest);
class CandidateColumnsLanesTest : public KernelLanesTest {};
LACB_INSTANTIATE_KERNEL_LANES(CandidateColumnsLanesTest);

void ExpectSelectMatchesOracle(const std::vector<double>& u, size_t k,
                               uint64_t seed, const std::string& what) {
  Rng a(seed);
  Rng b(seed);
  auto got = SelectTopK(u, k, &a);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleSelectTopK(u, k, &b))
      << what << " n=" << u.size() << " k=" << k;
  EXPECT_EQ(a.SaveState(), b.SaveState()) << what;
}

TEST_P(SelectTopKLanesTest, MatchesAllocatingOracleAndRngState) {
  Rng gen(21);
  for (Values kind : kAllValues) {
    const std::string what = "kind=" + std::to_string(static_cast<int>(kind));
    for (int trial = 0; trial < 60; ++trial) {
      size_t n = static_cast<size_t>(gen.UniformInt(0, 300));
      size_t k = static_cast<size_t>(gen.UniformInt(0, 40));
      std::vector<double> u(n);
      for (double& v : u) v = Draw(kind, &gen);
      ExpectSelectMatchesOracle(u, k, static_cast<uint64_t>(100 + trial),
                                what);
    }
    // Rows shorter than one vector and with a partial last vector, against
    // k = 0, k = 1, k inside the row, k = n and k > n.
    for (size_t n = 1; n <= 19; ++n) {
      std::vector<double> u(n);
      for (double& v : u) v = Draw(kind, &gen);
      for (size_t k : {size_t{0}, size_t{1}, n / 2, n - 1, n, n + 3}) {
        ExpectSelectMatchesOracle(u, k, 300 + n, what);
      }
    }
  }
}

TEST_P(CandidateColumnsLanesTest, MatchesAllocatingOracleAndRngState) {
  Rng gen(22);
  std::vector<size_t> reused = {7, 7, 7};  // stale contents are replaced
  for (Values kind : kAllValues) {
    for (int trial = 0; trial < 40; ++trial) {
      // Includes empty batches, rosters shorter than one vector and
      // batches wider than the roster.
      size_t rows = static_cast<size_t>(gen.UniformInt(0, 24));
      size_t cols = static_cast<size_t>(
          trial % 4 == 0 ? gen.UniformInt(1, 9) : gen.UniformInt(1, 400));
      la::Matrix u(rows, cols);
      for (double& v : u.data()) v = Draw(kind, &gen);
      Rng a(static_cast<uint64_t>(200 + trial));
      Rng b(static_cast<uint64_t>(200 + trial));
      Rng c(static_cast<uint64_t>(200 + trial));
      auto got = CandidateColumns(u, &a);
      ASSERT_TRUE(got.ok());
      std::vector<size_t> want = OracleCandidateColumns(u, &b);
      EXPECT_EQ(*got, want) << "kind=" << static_cast<int>(kind)
                            << " rows=" << rows << " cols=" << cols;
      EXPECT_EQ(a.SaveState(), b.SaveState());
      ASSERT_TRUE(CandidateColumns(u, &c, &reused).ok());
      EXPECT_EQ(reused, want);
      EXPECT_EQ(c.SaveState(), b.SaveState());
    }
  }
  la::Matrix one(1, 3, 0.5);
  EXPECT_FALSE(CandidateColumns(one, nullptr).ok());
}

TEST(SelectTopKTest, BasicCorrectness) {
  Rng rng(1);
  std::vector<double> u = {0.1, 0.9, 0.5, 0.7, 0.3};
  auto top = SelectTopK(u, 2, &rng);
  ASSERT_TRUE(top.ok());
  std::set<size_t> got(top->begin(), top->end());
  EXPECT_EQ(got, (std::set<size_t>{1, 3}));
}

TEST(SelectTopKTest, KZeroAndKTooLarge) {
  Rng rng(2);
  std::vector<double> u = {0.1, 0.2};
  EXPECT_TRUE(SelectTopK(u, 0, &rng)->empty());
  auto all = SelectTopK(u, 10, &rng);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  EXPECT_FALSE(SelectTopK(u, 1, nullptr).ok());
}

TEST(SelectTopKTest, AllEqualValuesTerminates) {
  Rng rng(3);
  std::vector<double> u(100, 0.5);
  auto top = SelectTopK(u, 7, &rng);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 7u);
}

TEST(SelectTopKTest, MatchesSortOracleOnRandomInputs) {
  Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 200));
    size_t k = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n)));
    std::vector<double> u(n);
    for (double& v : u) v = rng.Uniform();
    auto top = SelectTopK(u, k, &rng);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), k);
    // The k-th largest value is a threshold every selected index must meet.
    std::vector<double> sorted = u;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    double threshold = k == 0 ? 1e18 : sorted[k - 1];
    std::set<size_t> distinct(top->begin(), top->end());
    EXPECT_EQ(distinct.size(), k) << "duplicates returned";
    for (size_t idx : *top) {
      EXPECT_GE(u[idx], threshold - 1e-12);
    }
  }
}

TEST(CandidateColumnsTest, CoversAtLeastRowsAndDedups) {
  Rng rng(5);
  la::Matrix u(3, 10);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 10; ++c) u(r, c) = rng.Uniform();
  }
  auto cols = CandidateColumns(u, &rng);
  ASSERT_TRUE(cols.ok());
  EXPECT_GE(cols->size(), 3u);
  EXPECT_LE(cols->size(), 9u);  // at most |R| per row
  EXPECT_TRUE(std::is_sorted(cols->begin(), cols->end()));
  EXPECT_TRUE(std::adjacent_find(cols->begin(), cols->end()) == cols->end());
}

TEST(RestrictColumnsTest, ExtractsInOrder) {
  la::Matrix u(2, 4);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 4; ++c) u(r, c) = static_cast<double>(10 * r + c);
  }
  auto m = RestrictColumns(u, {3, 1});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->cols(), 2u);
  EXPECT_DOUBLE_EQ((*m)(0, 0), 3.0);
  EXPECT_DOUBLE_EQ((*m)(1, 1), 11.0);
  EXPECT_FALSE(RestrictColumns(u, {9}).ok());
}

// Theorem 2 / Corollary 1: assignment on the CBS-pruned graph achieves the
// same optimal total weight as on the full graph.
TEST(CbsExactnessTest, PrunedAssignmentMatchesFullOptimal) {
  Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 2 + static_cast<size_t>(rng.UniformInt(0, 4));
    size_t cols = rows + 5 + static_cast<size_t>(rng.UniformInt(0, 30));
    la::Matrix u(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) u(r, c) = rng.Uniform();
    }
    auto full = MaxWeightAssignment(u);
    ASSERT_TRUE(full.ok());
    auto keep = CandidateColumns(u, &rng);
    ASSERT_TRUE(keep.ok());
    auto pruned_m = RestrictColumns(u, *keep);
    ASSERT_TRUE(pruned_m.ok());
    auto pruned = MaxWeightAssignment(*pruned_m);
    ASSERT_TRUE(pruned.ok());
    EXPECT_NEAR(pruned->total_weight, full->total_weight, 1e-9)
        << "rows=" << rows << " cols=" << cols;
  }
}

// Exactness also holds for negative (value-refined) utilities, which is how
// LACB-Opt actually uses CBS.
TEST(CbsExactnessTest, HoldsWithNegativeUtilities) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    size_t rows = 3;
    size_t cols = 20;
    la::Matrix u(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) u(r, c) = rng.Uniform(-0.5, 1.0);
    }
    auto full = MaxWeightAssignment(u);
    auto keep = CandidateColumns(u, &rng);
    ASSERT_TRUE(keep.ok());
    auto pruned = MaxWeightAssignment(*RestrictColumns(u, *keep));
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(pruned.ok());
    EXPECT_NEAR(pruned->total_weight, full->total_weight, 1e-9);
  }
}

}  // namespace
}  // namespace lacb::matching
