// Matching-solver frontier: exact Kuhn–Munkres vs the parallel ½-approx
// b-matching solver across batch sizes and thread counts.
//
// Each frontier point is a capacity-aware batch instance — n requests
// against n/8 brokers with capacity 8 (so total capacity equals demand and
// every request is matchable). The exact baseline solves it as KM on the
// column-expanded n×n matrix (capacity k → k unit columns, the paper's
// formulation); the approximate solver consumes the capacities natively.
//
// Claims checked: (i) the approximate utility stays ≥ 95% of the exact
// optimum at every size with an exact baseline — far above the ½ worst
// case; (ii) at the serving-scale point (n = 4096, 8 threads) the approx
// solver is ≥ 5× faster than exact KM; (iii) the approximate assignment
// is bit-identical across thread counts (the determinism contract);
// (iv) approx latency grows with batch size. KM at n = 16384 (a ~7-minute
// cubic solve) is skipped; the per-request-max upper bound stands in as
// the utility yardstick there.
//
// Emits BENCH_matching.json; CI re-validates all four claims from it.

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench_util.h"
#include "lacb/matching/approx/parallel_bmatch.h"
#include "lacb/matching/approx/scoring.h"

namespace lacb {
namespace {

constexpr size_t kCap = 8;
constexpr size_t kKmExactLimit = 4096;  // largest size with a KM baseline

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadPoint {
  size_t threads = 0;
  double seconds = 0.0;
  double utility = 0.0;
  uint64_t rounds = 0;
  uint64_t proposals = 0;
  uint64_t steals = 0;
};

struct FrontierPoint {
  size_t batch_size = 0;
  size_t brokers = 0;
  bool km_exact = false;
  double km_seconds = 0.0;
  double km_utility = 0.0;
  double upper_bound_utility = 0.0;
  std::vector<ThreadPoint> threads;
};

// Capacity k → k unit columns; zero-pad so rows <= cols for the KM solver.
la::Matrix ExpandColumns(const la::Matrix& w, size_t cap) {
  const size_t expanded = w.cols() * cap;
  la::Matrix out(w.rows(), std::max(w.rows(), expanded));
  for (size_t r = 0; r < w.rows(); ++r) {
    for (size_t c = 0; c < w.cols(); ++c) {
      for (size_t k = 0; k < cap; ++k) out(r, c * cap + k) = w(r, c);
    }
  }
  return out;
}

Result<FrontierPoint> RunPoint(size_t n) {
  FrontierPoint point;
  point.batch_size = n;
  point.brokers = std::max<size_t>(kCap, n / kCap);

  // Float-rounded uniforms so the exact (double) and approx (float32)
  // domains score every edge identically.
  Rng rng(90000 + n);
  la::Matrix w(n, point.brokers);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < point.brokers; ++c) {
      w(r, c) = static_cast<double>(static_cast<float>(rng.Uniform()));
    }
  }
  for (size_t r = 0; r < n; ++r) {
    double best = 0.0;
    for (size_t c = 0; c < point.brokers; ++c) best = std::max(best, w(r, c));
    point.upper_bound_utility += best;
  }

  if (n <= kKmExactLimit) {
    la::Matrix expanded = ExpandColumns(w, kCap);
    const double t0 = Now();
    LACB_ASSIGN_OR_RETURN(matching::Assignment km,
                          matching::MaxWeightAssignment(expanded));
    point.km_seconds = Now() - t0;
    point.km_utility = km.total_weight;
    point.km_exact = true;
  }

  matching::approx::ScoreMatrix scores;
  matching::approx::ToScoreMatrix(w, &scores);
  std::vector<int64_t> caps(point.brokers, static_cast<int64_t>(kCap));
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    matching::approx::BMatchOptions opts;
    opts.num_threads = threads;
    ThreadPoint tp;
    tp.threads = threads;
    // Best of 3 repetitions (the instance is identical, so only timing
    // varies; utility and rounds come from the last run).
    tp.seconds = 1e30;
    matching::approx::BMatchResult result;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = Now();
      LACB_ASSIGN_OR_RETURN(result, matching::approx::ParallelBMatch(
                                        scores, caps, opts));
      tp.seconds = std::min(tp.seconds, Now() - t0);
    }
    tp.utility = result.total_weight;
    tp.rounds = result.rounds;
    tp.proposals = result.proposals;
    tp.steals = result.steals;
    point.threads.push_back(tp);
  }
  return point;
}

Status Run() {
  bench::PrintHeader("matching frontier",
                     "exact KM vs parallel approx across batch sizes");

  std::vector<FrontierPoint> points;
  for (size_t n : {64u, 256u, 1024u, 4096u, 16384u}) {
    std::cout << "batch " << n << "..." << std::flush;
    LACB_ASSIGN_OR_RETURN(FrontierPoint p, RunPoint(n));
    std::cout << " done (km "
              << (p.km_exact ? TablePrinter::Num(p.km_seconds, 3) + "s"
                             : "skipped")
              << ")\n";
    points.push_back(std::move(p));
  }

  TablePrinter table;
  table.SetHeader({"batch", "brokers", "km_s", "km_util", "threads",
                   "approx_s", "approx_util", "ratio", "rounds", "speedup"});
  for (const FrontierPoint& p : points) {
    for (const ThreadPoint& t : p.threads) {
      const double yardstick =
          p.km_exact ? p.km_utility : p.upper_bound_utility;
      LACB_RETURN_NOT_OK(table.AddRow(
          {std::to_string(p.batch_size), std::to_string(p.brokers),
           p.km_exact ? TablePrinter::Num(p.km_seconds, 4) : "-",
           p.km_exact ? TablePrinter::Num(p.km_utility, 2) : "-",
           std::to_string(t.threads), TablePrinter::Num(t.seconds, 5),
           TablePrinter::Num(t.utility, 2),
           TablePrinter::Num(t.utility / yardstick, 4),
           std::to_string(t.rounds),
           p.km_exact ? TablePrinter::Num(p.km_seconds / t.seconds, 1)
                      : "-"}));
    }
  }
  bench::PrintBoth(table);

  // --- Shape checks (CI re-validates the same claims from the JSON) ---
  bool all_ok = true;

  bool ratio_ok = true;
  double worst_ratio = 1.0;
  for (const FrontierPoint& p : points) {
    if (!p.km_exact) continue;
    for (const ThreadPoint& t : p.threads) {
      const double ratio = t.utility / p.km_utility;
      worst_ratio = std::min(worst_ratio, ratio);
      ratio_ok &= ratio >= 0.95;
    }
  }
  all_ok &= bench::ShapeCheck(
      "approx utility >= 95% of exact KM at every exact-baseline size",
      ratio_ok, "worst ratio " + TablePrinter::Num(worst_ratio, 4));

  const FrontierPoint* serving = nullptr;
  for (const FrontierPoint& p : points) {
    if (p.batch_size == 4096) serving = &p;
  }
  double serving_speedup = 0.0;
  if (serving != nullptr && serving->km_exact) {
    for (const ThreadPoint& t : serving->threads) {
      if (t.threads == 8) serving_speedup = serving->km_seconds / t.seconds;
    }
  }
  all_ok &= bench::ShapeCheck(
      "approx (8 threads) >= 5x faster than exact KM at batch 4096",
      serving_speedup >= 5.0,
      TablePrinter::Num(serving_speedup, 1) + "x");

  bool thread_invariant = true;
  for (const FrontierPoint& p : points) {
    for (const ThreadPoint& t : p.threads) {
      thread_invariant &= t.utility == p.threads.front().utility;
    }
  }
  all_ok &= bench::ShapeCheck(
      "approx utility bit-identical across thread counts",
      thread_invariant, thread_invariant ? "all equal" : "divergence");

  bool grows = true;
  for (size_t ti = 0; ti < points.front().threads.size(); ++ti) {
    grows &= points.back().threads[ti].seconds >
             points.front().threads[ti].seconds;
  }
  all_ok &= bench::ShapeCheck(
      "approx latency grows from batch 64 to batch 16384", grows,
      grows ? "endpoints ordered" : "non-monotone endpoints");

  // --- BENCH_matching.json ---
  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("bench", "matching");
  root.Set("schema_version", static_cast<int64_t>(1));
  root.Set("cap_per_broker", static_cast<uint64_t>(kCap));
  obs::JsonValue frontier = obs::JsonValue::Array();
  for (const FrontierPoint& p : points) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("batch_size", static_cast<uint64_t>(p.batch_size));
    entry.Set("brokers", static_cast<uint64_t>(p.brokers));
    entry.Set("km_exact", p.km_exact);
    if (p.km_exact) {
      entry.Set("km_seconds", p.km_seconds);
      entry.Set("km_utility", p.km_utility);
    }
    entry.Set("upper_bound_utility", p.upper_bound_utility);
    obs::JsonValue threads = obs::JsonValue::Array();
    for (const ThreadPoint& t : p.threads) {
      obs::JsonValue tj = obs::JsonValue::Object();
      tj.Set("threads", static_cast<uint64_t>(t.threads));
      tj.Set("approx_seconds", t.seconds);
      tj.Set("approx_utility", t.utility);
      tj.Set("rounds", t.rounds);
      tj.Set("proposals", t.proposals);
      tj.Set("steals", t.steals);
      threads.Append(std::move(tj));
    }
    entry.Set("threads", std::move(threads));
    frontier.Append(std::move(entry));
  }
  root.Set("frontier", std::move(frontier));
  LACB_RETURN_NOT_OK(obs::WriteJsonFile(root, "BENCH_matching.json"));
  std::cout << "telemetry written to BENCH_matching.json\n";

  std::cout << "\n"
            << (all_ok ? "ALL SHAPE CHECKS PASSED" : "SHAPE CHECKS FAILED")
            << "\n";
  return Status::OK();
}

}  // namespace
}  // namespace lacb

int main() {
  lacb::Status s = lacb::Run();
  if (!s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  return 0;
}
