#include "lacb/matching/assignment.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>

#include "lacb/common/cpu.h"
#include "lacb/common/simd.h"
#include "lacb/common/stopwatch.h"
#include "lacb/obs/obs.h"

namespace lacb::matching {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
// The per-column buffers are padded to whole vectors of the widest tier.
constexpr size_t kMaxLanes = 8;
constexpr int64_t kIota[kMaxLanes] = {0, 1, 2, 3, 4, 5, 6, 7};

// One thread's KM buffers, grown to the widest instance seen and reused by
// every later solve (as selection.cc's Scratch), so a served worker
// allocates nothing per solve.
struct Workspace {
  std::vector<double> u;
  std::vector<size_t> p;
  std::vector<size_t> used;
  std::vector<double> lanes;  // v and minv, line-aligned inside
  std::vector<int64_t> way;   // line-aligned inside
};

Workspace& ThreadWorkspace() {
  thread_local Workspace ws;
  return ws;
}

// `size` elements of `buf` starting on a 64-byte line, so no vector load
// of a whole-vector column group straddles two lines; grows `buf` as needed.
template <class T>
T* LineAligned(std::vector<T>* buf, size_t size) {
  const size_t need = size + 64 / sizeof(T);
  if (buf->size() < need) buf->resize(need);
  void* p = buf->data();
  size_t space = buf->size() * sizeof(T);
  return static_cast<T*>(std::align(64, size * sizeof(T), p, space));
}

// One solve of the potential-based shortest-augmenting-path Kuhn–Munkres,
// minimizing the total cost −weights(i, j); rows are 1..n, columns 1..m,
// n <= m, and every row gets a column. Classic formulation (e.g. e-maxx);
// O(n²m). Column j's v, minv and way sit at lane j − 1 of buffers padded to
// whole 8-lane vectors.
struct Km {
  const double* w;  // n × m weights, row-major
  size_t n, m;
  double* u;        // 1..n
  size_t* p;        // 0..m: the row holding column j, 0 for none
  size_t* used;     // the real columns reached so far in a row's search
  double* v;
  double* minv;     // NaN marks a reached column and every pad lane
  int64_t* way;
  uint64_t steps = 0;
  SolveStats* stats = nullptr;  // null: no phase timings or counts
};

// One Dijkstra step's running state, L columns at a time.
template <int L>
struct ScanLanes {
  using V = typename simd::Lanes<L>::V;
  using M = typename simd::Lanes<L>::M;
  double u0;     // the scanned row's potential
  double owed;   // the previous step's delta, still owed by every minv
  M from;        // the column whose row this step scans, splat
  V best;        // each lane's first minimum so far
  M best_k;      // and its column, as j − 1
  M k;           // the columns of the current vector, as j − 1
  V fresh;       // a row's first step: its minv, ∞ (NaN on pad lanes)
  V finite;      // a row's first step: 0 while every weight is finite
};

// The textbook step over columns k..k+L−1, element by element: the folded
// decrement mv = minv − owed, then cur = −w − u0 − v and strict < for both
// compares, in that order. A reached column's NaN minv fails both compares,
// so it keeps its way and is never picked. A row's first step (kFirst)
// starts from minv = ∞, which owes nothing yet, so it loads no minv.
template <int L, bool kFirst>
LACB_TILE void ScanVector(ScanLanes<L>& s, const double* w, double* minv,
                          const double* v, int64_t* way) {
  using V = typename simd::Lanes<L>::V;
  using M = typename simd::Lanes<L>::M;
  V x;
  simd::Load(x, w);
  V mv;
  if constexpr (kFirst) {
    // x − x is 0 for a finite x and NaN for a NaN or infinite one.
    s.finite += x - x;
    mv = s.fresh;
  } else {
    simd::Load(mv, minv);
    mv = mv - s.owed;
  }
  V col_v;
  simd::Load(col_v, v);
  const V cur = -x - s.u0 - col_v;
  const M better = cur < mv;
  mv = better ? cur : mv;
  simd::Store(minv, mv);
  M back;
  simd::Load(back, way);
  back = better ? s.from : back;
  simd::Store(way, back);
  const M take = mv < s.best;
  s.best = take ? mv : s.best;
  s.best_k = take ? s.k : s.best_k;
  s.k += L;
}

// One Dijkstra step over every column of `row`, reached ones masked: the
// column a 1..m scan would pick (the first minimum), as j − 1, or −1 if
// no column is reachable. A row's first step reads all of that row before
// any later step reads it, so kFirst also returns −1 when one of its
// weights is NaN or infinite.
template <int L, bool kFirst>
LACB_TILE int64_t ScanRow(const Km& km, const double* row, double u0,
                          double owed, size_t from) {
  using V = typename simd::Lanes<L>::V;
  using M = typename simd::Lanes<L>::M;
  ScanLanes<L> s;
  s.u0 = u0;
  s.owed = owed;
  s.from = M{} + static_cast<int64_t>(from);
  s.best = V{} + kInf;
  s.best_k = M{};
  simd::Load(s.k, kIota);
  s.fresh = V{} + kInf;
  s.finite = V{};
  // Locals, so the vector stores below cannot alias what the loop reads.
  const size_t m = km.m;
  double* const minv = km.minv;
  const double* const v = km.v;
  int64_t* const way = km.way;
  size_t k = 0;
  for (; k + L <= m; k += L) {
    ScanVector<L, kFirst>(s, row + k, minv + k, v + k, way + k);
  }
  if (k < m) {
    // The last partial vector reads a zero-padded copy, so no load passes
    // the end of the last row; its pad lanes' NaN minv masks them.
    double tail[L];
    double fresh[L];
    for (size_t l = 0; l < L; ++l) {
      tail[l] = k + l < m ? row[k + l] : 0.0;
      fresh[l] = k + l < m ? kInf : kNaN;
    }
    simd::Load(s.fresh, fresh);
    ScanVector<L, kFirst>(s, tail, minv + k, v + k, way + k);
  }
  if constexpr (kFirst) {
    for (int l = 0; l < L; ++l) {
      if (!(s.finite[l] == 0.0)) return -1;
    }
  }
  // Each lane holds its first minimum, so the lowest column among the
  // lanes equal to the least is the first minimum of the whole row (-0.0
  // and +0.0 compare equal, as in the scalar scan). Halving tree: that
  // order is total, so any pairing finds the same lane.
  double best[L];
  int64_t best_k[L];
  simd::Store(best, s.best);
  simd::Store(best_k, s.best_k);
  for (int h = L / 2; h > 0; h /= 2) {
    for (int l = 0; l < h; ++l) {
      const bool other = best[l + h] < best[l] ||
                         (best[l + h] == best[l] && best_k[l + h] < best_k[l]);
      best[l] = other ? best[l + h] : best[l];
      best_k[l] = other ? best_k[l + h] : best_k[l];
    }
  }
  return best[0] < kInf ? best_k[0] : -1;
}

// The whole solve: false if a weight is NaN or infinite, or a step reaches
// no column, in which case `km`'s outputs are meaningless. It returns the
// textbook loop's columns and step counts while skipping that loop's
// wasted work (docs/matching.md, "Exact KM kernel").
template <int L>
LACB_TILE bool SolveMinCost(Km& km) {
  const size_t n = km.n;
  const size_t m = km.m;
  SolveStats* stats = km.stats;
  Stopwatch phase_sw;
  uint64_t steps = 0;
  for (size_t i = 1; i <= n; ++i) {
    km.p[0] = i;
    size_t j0 = 0;
    size_t num_used = 0;
    double owed = 0.0;
    const uint64_t steps_before = steps;
    if (stats != nullptr) phase_sw.Restart();
    do {
      ++steps;
      if (j0 != 0) {
        km.used[num_used++] = j0;
        km.minv[j0 - 1] = kNaN;
      }
      const size_t i0 = km.p[j0];
      const double* row = km.w + (i0 - 1) * m;
      const int64_t k1 =
          j0 == 0 ? ScanRow<L, true>(km, row, km.u[i0], owed, j0)
                  : ScanRow<L, false>(km, row, km.u[i0], owed, j0);
      if (k1 < 0) return false;
      // Read back, so a ±0 tie keeps the chosen element's own bits.
      const double delta = km.minv[k1];
      // Column 0 is the row's own slot; its v is never read. Each reached
      // column holds a distinct row, so the order of these updates cannot
      // change any bit.
      km.u[i] += delta;
      for (size_t t = 0; t < num_used; ++t) {
        const size_t j = km.used[t];
        km.u[km.p[j]] += delta;
        km.v[j - 1] -= delta;
      }
      owed = delta;
      j0 = static_cast<size_t>(k1) + 1;
    } while (km.p[j0] != 0);
    if (stats != nullptr) {
      stats->phase_search_seconds += phase_sw.ElapsedSeconds();
      // Scan step s of this row applies a (u, v) dual adjustment to every
      // column marked used so far — exactly s of them — so a row that took
      // S steps performed S(S+1)/2 adjustments in total.
      const uint64_t s = steps - steps_before;
      stats->dual_updates += s * (s + 1) / 2;
      phase_sw.Restart();
    }
    do {
      const size_t j1 = static_cast<size_t>(km.way[j0 - 1]);
      km.p[j0] = km.p[j1];
      j0 = j1;
    } while (j0 != 0);
    if (stats != nullptr) {
      stats->phase_update_seconds += phase_sw.ElapsedSeconds();
      ++stats->augmenting_paths;
    }
  }
  if (stats != nullptr) stats->iterations += steps;
  km.steps = steps;
  return true;
}

// The kernel's only out-of-line entries, one per tier (common/cpu.h). Each
// starts on a 64-byte line, so its loops keep their alignment wherever the
// linker places it.
using SolveFn = bool (*)(Km&);
[[gnu::aligned(64)]] bool SolveMinCost2(Km& km) { return SolveMinCost<2>(km); }
#if defined(__x86_64__)
[[gnu::aligned(64), LACB_TARGET_LANES4]] bool SolveMinCost4(Km& km) {
  return SolveMinCost<4>(km);
}
[[gnu::aligned(64), LACB_TARGET_LANES8]] bool SolveMinCost8(Km& km) {
  return SolveMinCost<8>(km);
}
#endif

SolveFn SolveFor(size_t lanes) {
  switch (lanes) {
#if defined(__x86_64__)
    case 8:
      return SolveMinCost8;
    case 4:
      return SolveMinCost4;
#endif
    default:
      return SolveMinCost2;
  }
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
  const size_t n = weights.rows();
  const size_t m = weights.cols();
  const size_t padded = (m + kMaxLanes - 1) / kMaxLanes * kMaxLanes;
  Workspace& ws = ThreadWorkspace();
  ws.u.assign(n + 1, 0.0);
  ws.p.assign(m + 1, 0);
  if (ws.used.size() < m) ws.used.resize(m);
  Km km;
  km.w = weights.data().data();
  km.n = n;
  km.m = m;
  km.u = ws.u.data();
  km.p = ws.p.data();
  km.used = ws.used.data();
  km.v = LineAligned(&ws.lanes, 2 * padded);
  km.minv = km.v + padded;
  km.way = LineAligned(&ws.way, padded);
  std::fill(km.v, km.v + padded, 0.0);
  // Kept apart until the solve succeeds: a refused solve leaves `stats`
  // as it was.
  SolveStats one;
  if (stats != nullptr) km.stats = &one;
  const double build_seconds = total_sw.ElapsedSeconds();
  // A NaN or infinite weight would keep the scan from ever reaching a free
  // column, so the solve would never end; the kernel refuses it instead.
  if (!SolveFor(KernelLanes())(km)) {
    return Status::InvalidArgument(
        "MaxWeightAssignment requires finite weights");
  }
  // Summed in the cost domain, then negated, so even the sign of a zero
  // total matches a solve over an explicit cost matrix.
  double cost = 0.0;
  Assignment a;
  a.col_of_row.assign(n, kUnmatched);
  for (size_t j = 1; j <= m; ++j) {
    if (km.p[j] != 0) {
      a.col_of_row[km.p[j] - 1] = static_cast<int64_t>(j - 1);
      cost += -weights(km.p[j] - 1, j - 1);
    }
  }
  a.total_weight = -cost;
  if (stats != nullptr) {
    one.solver = "km";
    one.rows = n;
    one.cols = m;
    one.solves = 1;
    one.objective = a.total_weight;
    one.phase_build_seconds = build_seconds;
    one.total_seconds = total_sw.ElapsedSeconds();
    stats->MergeFrom(one);
  }
  thread_local obs::ActiveCounter solves("matching.km.solves");
  thread_local obs::ActiveCounter rows("matching.km.rows");
  thread_local obs::ActiveCounter scan_steps("matching.km.scan_steps");
  solves.Get().Increment();
  rows.Get().Increment(n);
  scan_steps.Get().Increment(km.steps);
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
