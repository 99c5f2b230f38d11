#include "lacb/matching/two_sided.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lacb/matching/approx/parallel_bmatch.h"
#include "lacb/matching/assignment.h"

namespace lacb::matching {
namespace {

// Sentinel far below any real utility; the skip column (weight 0) always
// beats it, so an ineligible edge can never be matched by the exact path.
constexpr double kIneligible = -1e18;

bool Eligible(const TwoSidedParams& p, size_t row, size_t col) {
  return p.costs[col] <= p.budgets[row];
}

// Deterministic budget truncation shared by both backends: keep matched
// brokers per request in (utility desc, broker asc) order while the
// cumulative cost fits the budget, then emit them sorted ascending.
TwoSidedAssignment Truncate(const la::Matrix& weights,
                            const TwoSidedParams& params,
                            std::vector<std::vector<int64_t>> raw) {
  TwoSidedAssignment out;
  out.brokers_of_row.resize(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    std::vector<int64_t>& edges = raw[i];
    std::sort(edges.begin(), edges.end(), [&](int64_t a, int64_t b) {
      double wa = weights(i, static_cast<size_t>(a));
      double wb = weights(i, static_cast<size_t>(b));
      if (wa != wb) return wa > wb;
      return a < b;
    });
    double spent = 0.0;
    std::vector<int64_t>& kept = out.brokers_of_row[i];
    for (int64_t b : edges) {
      double cost = params.costs[static_cast<size_t>(b)];
      if (spent + cost > params.budgets[i] ||
          kept.size() >= static_cast<size_t>(params.limits[i])) {
        ++out.truncated_edges;
        continue;
      }
      spent += cost;
      kept.push_back(b);
      out.total_weight += weights(i, static_cast<size_t>(b));
    }
    std::sort(kept.begin(), kept.end());
  }
  return out;
}

}  // namespace

Status ValidateTwoSidedParams(const la::Matrix& weights,
                              const TwoSidedParams& params) {
  if (params.budgets.size() != weights.rows() ||
      params.limits.size() != weights.rows()) {
    return Status::InvalidArgument(
        "two-sided budgets/limits must have one entry per request row");
  }
  if (params.costs.size() != weights.cols()) {
    return Status::InvalidArgument(
        "two-sided costs must have one entry per broker column");
  }
  for (size_t i = 0; i < params.limits.size(); ++i) {
    if (params.limits[i] < 1) {
      return Status::InvalidArgument("two-sided matching limit must be >= 1");
    }
    if (!(params.budgets[i] >= 0.0)) {  // also rejects NaN
      return Status::InvalidArgument("two-sided budget must be >= 0");
    }
  }
  for (double c : params.costs) {
    if (!(c >= 0.0)) {
      return Status::InvalidArgument("two-sided broker cost must be >= 0");
    }
  }
  return Status::OK();
}

Result<TwoSidedAssignment> TwoSidedExact(const la::Matrix& weights,
                                         const TwoSidedParams& params,
                                         SolveStats* stats) {
  LACB_RETURN_NOT_OK(ValidateTwoSidedParams(weights, params));
  const size_t n = weights.rows();
  const size_t m = weights.cols();
  if (n == 0 || m == 0) {
    TwoSidedAssignment empty;
    empty.brokers_of_row.resize(n);
    return empty;
  }
  // Row expansion: request i contributes limits[i] identical rows, each of
  // which KM matches to a *distinct* column — exactly the degree-≤ℓ_i
  // request side. Ineligible edges get the sentinel so the zero-weight
  // skip column always wins over them.
  size_t total_rows = 0;
  for (int64_t l : params.limits) total_rows += static_cast<size_t>(l);
  la::Matrix expanded(total_rows, m, kIneligible);
  std::vector<size_t> row_of_expanded(total_rows);
  size_t er = 0;
  for (size_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k < params.limits[i]; ++k, ++er) {
      row_of_expanded[er] = i;
      for (size_t j = 0; j < m; ++j) {
        if (Eligible(params, i, j)) expanded(er, j) = weights(i, j);
      }
    }
  }
  LACB_ASSIGN_OR_RETURN(Assignment solved,
                        MaxWeightAssignmentAllowSkip(expanded, stats));
  std::vector<std::vector<int64_t>> raw(n);
  for (size_t r = 0; r < total_rows; ++r) {
    int64_t j = solved.col_of_row[r];
    if (j == kUnmatched) continue;
    // Skip-column filtering happened inside AllowSkip; a matched edge at
    // the sentinel weight is impossible but guard against it anyway.
    if (expanded(r, static_cast<size_t>(j)) <= kIneligible) continue;
    raw[row_of_expanded[r]].push_back(j);
  }
  return Truncate(weights, params, std::move(raw));
}

Result<TwoSidedAssignment> TwoSidedApprox(const la::Matrix& weights,
                                          const TwoSidedParams& params,
                                          size_t num_threads,
                                          SolveStats* stats) {
  LACB_RETURN_NOT_OK(ValidateTwoSidedParams(weights, params));
  const size_t n = weights.rows();
  const size_t m = weights.cols();
  if (n == 0 || m == 0) {
    TwoSidedAssignment empty;
    empty.brokers_of_row.resize(n);
    return empty;
  }
  // Transposed orientation: brokers are the degree-≤1 rows (batch-level
  // broker uniqueness), requests the columns with capacity ℓ_i.
  // Ineligible edges are NaN = missing.
  la::Matrix transposed(m, n, std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (Eligible(params, i, j)) transposed(j, i) = weights(i, j);
    }
  }
  approx::BMatchOptions opts;
  opts.num_threads = num_threads;
  LACB_ASSIGN_OR_RETURN(
      approx::BMatchResult solved,
      approx::ParallelBMatch(transposed, params.limits, opts, stats));
  std::vector<std::vector<int64_t>> raw(n);
  for (size_t j = 0; j < m; ++j) {
    int64_t i = solved.col_of_row[j];
    if (i == kUnmatched) continue;
    raw[static_cast<size_t>(i)].push_back(static_cast<int64_t>(j));
  }
  return Truncate(weights, params, std::move(raw));
}

Status CheckTwoSidedFeasible(const la::Matrix& weights,
                             const TwoSidedParams& params,
                             const TwoSidedAssignment& assignment) {
  LACB_RETURN_NOT_OK(ValidateTwoSidedParams(weights, params));
  if (assignment.brokers_of_row.size() != weights.rows()) {
    return Status::InvalidArgument("assignment row count mismatch");
  }
  std::vector<uint8_t> used(weights.cols(), 0);
  for (size_t i = 0; i < assignment.brokers_of_row.size(); ++i) {
    const std::vector<int64_t>& edges = assignment.brokers_of_row[i];
    if (edges.size() > static_cast<size_t>(params.limits[i])) {
      return Status::InvalidArgument("matching limit exceeded");
    }
    double spent = 0.0;
    for (int64_t b : edges) {
      if (b < 0 || static_cast<size_t>(b) >= weights.cols()) {
        return Status::InvalidArgument("broker index out of range");
      }
      if (used[static_cast<size_t>(b)]) {
        return Status::InvalidArgument("broker engaged by two requests");
      }
      used[static_cast<size_t>(b)] = 1;
      if (!Eligible(params, i, static_cast<size_t>(b))) {
        return Status::InvalidArgument("ineligible edge (cost > budget)");
      }
      spent += params.costs[static_cast<size_t>(b)];
    }
    if (spent > params.budgets[i] + 1e-9) {
      return Status::InvalidArgument("request budget exceeded");
    }
  }
  return Status::OK();
}

namespace {

// Recursion over columns: broker j is either unengaged or engaged by one
// request whose limit and budget still admit it.
void BruteRecurse(const la::Matrix& weights, const TwoSidedParams& params,
                  size_t j, std::vector<int64_t>* owner,
                  std::vector<size_t>* degree, std::vector<double>* spent,
                  double weight, double* best_weight,
                  std::vector<int64_t>* best_owner) {
  if (j == weights.cols()) {
    if (weight > *best_weight + 1e-12) {
      *best_weight = weight;
      *best_owner = *owner;
    }
    return;
  }
  (*owner)[j] = kUnmatched;
  BruteRecurse(weights, params, j + 1, owner, degree, spent, weight,
               best_weight, best_owner);
  for (size_t i = 0; i < weights.rows(); ++i) {
    if ((*degree)[i] >= static_cast<size_t>(params.limits[i])) continue;
    if ((*spent)[i] + params.costs[j] > params.budgets[i]) continue;
    (*owner)[j] = static_cast<int64_t>(i);
    ++(*degree)[i];
    (*spent)[i] += params.costs[j];
    BruteRecurse(weights, params, j + 1, owner, degree, spent,
                 weight + weights(i, j), best_weight, best_owner);
    --(*degree)[i];
    (*spent)[i] -= params.costs[j];
  }
  (*owner)[j] = kUnmatched;
}

}  // namespace

Result<TwoSidedAssignment> BruteForceTwoSided(const la::Matrix& weights,
                                              const TwoSidedParams& params) {
  LACB_RETURN_NOT_OK(ValidateTwoSidedParams(weights, params));
  if (weights.cols() > 8) {
    return Status::InvalidArgument("BruteForceTwoSided: too many columns");
  }
  std::vector<int64_t> owner(weights.cols(), kUnmatched);
  std::vector<int64_t> best_owner(weights.cols(), kUnmatched);
  std::vector<size_t> degree(weights.rows(), 0);
  std::vector<double> spent(weights.rows(), 0.0);
  double best_weight = 0.0;
  BruteRecurse(weights, params, 0, &owner, &degree, &spent, 0.0, &best_weight,
               &best_owner);
  TwoSidedAssignment out;
  out.brokers_of_row.resize(weights.rows());
  for (size_t j = 0; j < best_owner.size(); ++j) {
    if (best_owner[j] == kUnmatched) continue;
    out.brokers_of_row[static_cast<size_t>(best_owner[j])].push_back(
        static_cast<int64_t>(j));
    out.total_weight += weights(static_cast<size_t>(best_owner[j]), j);
  }
  return out;
}

}  // namespace lacb::matching
