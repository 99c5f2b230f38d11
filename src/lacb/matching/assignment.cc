#include "lacb/matching/assignment.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "lacb/common/stopwatch.h"
#include "lacb/obs/obs.h"

namespace lacb::matching {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Potential-based shortest-augmenting-path Kuhn–Munkres, minimizing the
// total cost −weights(i, j); rows are 1..n, columns 1..m, n <= m. Every row
// gets a column. Classic formulation (e.g. e-maxx); O(n²m). It returns the
// textbook loop's columns, objective bits and step counts while skipping
// that loop's wasted work (docs/matching.md, "Exact KM kernel"). Weights
// must be finite.
// `scan_steps` (when non-null) accumulates the Dijkstra-like column scans —
// the quantity that actually grows cubically and that perf PRs need to
// watch. `stats` (when non-null) additionally collects phase timings and
// dual-update counts; both outputs are gated so the null path adds no clock
// reads to the inner loops.
Assignment SolveMinCost(const la::Matrix& weights, uint64_t* scan_steps,
                        SolveStats* stats) {
  size_t n = weights.rows();
  size_t m = weights.cols();
  const bool collect = stats != nullptr;
  uint64_t steps = 0;
  Stopwatch phase_sw;
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0), minv(m + 1);
  std::vector<size_t> p(m + 1, 0), way(m + 1, 0);
  // Columns not yet reached this row, ascending (so the first minimum wins
  // ties exactly as in a full 1..m scan), and the reached ones, column 0
  // (the row's own slot) first.
  std::vector<size_t> free_cols, used_cols;
  used_cols.reserve(m + 1);
  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    free_cols.resize(m);
    std::iota(free_cols.begin(), free_cols.end(), size_t{1});
    used_cols.clear();
    // The previous step's delta, still owed by every free column's minv.
    double owed = 0.0;
    uint64_t steps_before = steps;
    if (collect) phase_sw.Restart();
    do {
      ++steps;
      used_cols.push_back(j0);
      size_t i0 = p[j0];
      const double* row = weights.RowPtr(i0 - 1);
      const double u0 = u[i0];
      size_t j1 = 0;
      size_t k1 = 0;
      double delta = kInf;
      for (size_t k = 0; k < free_cols.size(); ++k) {
        size_t j = free_cols[k];
        double mv = minv[j] - owed;
        double cur = -row[j - 1] - u0 - v[j];
        if (cur < mv) {
          mv = cur;
          way[j] = j0;
        }
        minv[j] = mv;
        if (mv < delta) {
          delta = mv;
          j1 = j;
          k1 = k;
        }
      }
      // Each used column holds a distinct row, so the order of these
      // updates cannot change any bit.
      for (size_t j : used_cols) {
        u[p[j]] += delta;
        v[j] -= delta;
      }
      free_cols.erase(free_cols.begin() + static_cast<std::ptrdiff_t>(k1));
      owed = delta;
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
  // Summed in the cost domain, then negated, so even the sign of a zero
  // total matches a solve over an explicit cost matrix.
  double cost = 0.0;
  Assignment out;
  out.col_of_row.assign(n, kUnmatched);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) {
      out.col_of_row[p[j] - 1] = static_cast<int64_t>(j - 1);
      cost += -weights(p[j] - 1, j - 1);
    }
  }
  out.total_weight = -cost;
  if (scan_steps != nullptr) *scan_steps += steps;
  return out;
}

}  // namespace

Result<Assignment> MaxWeightAssignment(const la::Matrix& weights,
                                       SolveStats* stats) {
  if (weights.rows() == 0) return Assignment{};
  if (weights.rows() > weights.cols()) {
    return Status::InvalidArgument(
        "MaxWeightAssignment requires rows <= cols");
  }
  LACB_TRACE_SPAN("km_solve");
  Stopwatch total_sw;
  Stopwatch build_sw;
  // A NaN or infinite weight would keep the scan from ever reaching a free
  // column, so the solve would never end.
  for (double w : weights.data()) {
    if (!std::isfinite(w)) {
      return Status::InvalidArgument(
          "MaxWeightAssignment requires finite weights");
    }
  }
  double build_seconds = build_sw.ElapsedSeconds();
  uint64_t scan_steps = 0;
  Assignment a = SolveMinCost(weights, &scan_steps, stats);
  if (stats != nullptr) {
    SolveStats one;
    one.solver = "km";
    one.rows = weights.rows();
    one.cols = weights.cols();
    one.solves = 1;
    one.objective = a.total_weight;
    one.phase_build_seconds = build_seconds;
    one.total_seconds = total_sw.ElapsedSeconds();
    // SolveMinCost already accumulated iterations / paths / duals / phase
    // timings directly into `stats`; fold in the per-call envelope.
    stats->MergeFrom(one);
  }
  obs::MetricRegistry& registry = obs::ActiveRegistry();
  registry.GetCounter("matching.km.solves").Increment();
  registry.GetCounter("matching.km.rows").Increment(weights.rows());
  registry.GetCounter("matching.km.scan_steps").Increment(scan_steps);
  return a;
}

Result<Assignment> MaxWeightAssignmentAllowSkip(const la::Matrix& weights,
                                                SolveStats* stats) {
  if (weights.rows() == 0) return Assignment{};
  size_t n = weights.rows();
  size_t m = weights.cols();
  // Append n zero-weight "skip" columns: a row matched to one of them is
  // effectively unmatched, so no row is ever forced onto a negative edge.
  la::Matrix augmented(n, m + n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) augmented(i, j) = weights(i, j);
  }
  LACB_ASSIGN_OR_RETURN(Assignment a, MaxWeightAssignment(augmented, stats));
  Assignment out;
  out.col_of_row.assign(n, kUnmatched);
  for (size_t i = 0; i < n; ++i) {
    int64_t j = a.col_of_row[i];
    if (j >= 0 && static_cast<size_t>(j) < m) {
      out.col_of_row[i] = j;
      out.total_weight += weights(i, static_cast<size_t>(j));
    }
  }
  // The inner solve reported the augmented objective (which counts skip
  // columns as zero, so it already equals the clamped total); keep the
  // returned objective consistent with the assignment we hand back.
  if (stats != nullptr) stats->objective += out.total_weight - a.total_weight;
  return out;
}

Result<la::Matrix> PadToSquare(const la::Matrix& weights) {
  if (weights.rows() > weights.cols()) {
    return Status::InvalidArgument("PadToSquare requires rows <= cols");
  }
  obs::ActiveRegistry()
      .GetCounter("matching.pad.dummy_rows")
      .Increment(weights.cols() - weights.rows());
  la::Matrix out(weights.cols(), weights.cols(), 0.0);
  for (size_t i = 0; i < weights.rows(); ++i) {
    for (size_t j = 0; j < weights.cols(); ++j) {
      out(i, j) = weights(i, j);
    }
  }
  return out;
}

Result<Assignment> GreedyAssignment(const la::Matrix& weights) {
  LACB_TRACE_SPAN("greedy_solve");
  obs::ActiveRegistry().GetCounter("matching.greedy.solves").Increment();
  struct Edge {
    double w;
    size_t r;
    size_t c;
  };
  std::vector<Edge> edges;
  edges.reserve(weights.rows() * weights.cols());
  for (size_t r = 0; r < weights.rows(); ++r) {
    for (size_t c = 0; c < weights.cols(); ++c) {
      edges.push_back(Edge{weights(r, c), r, c});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.w > b.w; });
  Assignment out;
  out.col_of_row.assign(weights.rows(), kUnmatched);
  std::vector<bool> col_used(weights.cols(), false);
  size_t matched = 0;
  for (const Edge& e : edges) {
    if (matched == weights.rows()) break;
    if (out.col_of_row[e.r] != kUnmatched || col_used[e.c]) continue;
    out.col_of_row[e.r] = static_cast<int64_t>(e.c);
    col_used[e.c] = true;
    out.total_weight += e.w;
    ++matched;
  }
  return out;
}

namespace {

void BruteForceRecurse(const la::Matrix& w, size_t row,
                       std::vector<int64_t>* current, double current_weight,
                       std::vector<bool>* col_used, Assignment* best) {
  if (row == w.rows()) {
    if (current_weight > best->total_weight) {
      best->total_weight = current_weight;
      best->col_of_row = *current;
    }
    return;
  }
  for (size_t c = 0; c < w.cols(); ++c) {
    if ((*col_used)[c]) continue;
    (*col_used)[c] = true;
    (*current)[row] = static_cast<int64_t>(c);
    BruteForceRecurse(w, row + 1, current, current_weight + w(row, c),
                      col_used, best);
    (*col_used)[c] = false;
  }
  (*current)[row] = kUnmatched;
}

}  // namespace

Result<Assignment> BruteForceAssignment(const la::Matrix& weights) {
  if (weights.rows() > weights.cols()) {
    return Status::InvalidArgument(
        "BruteForceAssignment requires rows <= cols");
  }
  if (weights.rows() > 9) {
    return Status::InvalidArgument(
        "BruteForceAssignment is a test oracle; rows must be <= 9");
  }
  Assignment best;
  best.col_of_row.assign(weights.rows(), kUnmatched);
  best.total_weight = -kInf;
  std::vector<int64_t> current(weights.rows(), kUnmatched);
  std::vector<bool> col_used(weights.cols(), false);
  BruteForceRecurse(weights, 0, &current, 0.0, &col_used, &best);
  if (weights.rows() == 0) best.total_weight = 0.0;
  return best;
}

}  // namespace lacb::matching
