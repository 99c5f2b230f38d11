// Deterministic multi-threaded ½-approximate b-matching.
//
// The capacity-aware batch assignment is a bipartite b-matching: requests
// (rows, degree ≤ 1) against brokers (columns, degree ≤ capacity b). This
// solver computes the *locally-dominant* matching — the matching produced
// by greedily accepting edges in decreasing weight order — which carries
// the classical ½-approximation guarantee for maximum-weight b-matching,
// via the suitor/adoration proposal scheme (Manne–Halappanavar; Khan et
// al.'s b-Suitor):
//
//   * Every broker column owns `capacity` *suitor slots*, each a single
//     64-bit atomic packing (monotone float32 score bits << 32) | ~row, so
//     "better suitor" is one integer compare and admission is one CAS.
//   * Unmatched requests scan their score row for the best column whose
//     cached admission threshold they beat, then CAS into that column's
//     weakest slot; the evicted suitor re-enters the next proposal round.
//   * Rounds are barrier-synchronized; within a round, threads drain
//     per-thread chunks of the pending queue and work-steal from other
//     chunks through atomic cursors when their own runs dry.
//
// Determinism: the locally-dominant matching is *unique* given a strict
// total order on edges — here (score desc, column asc, row asc), with
// scores compared as float32 — and the suitor scheme converges to it under
// any execution schedule. The returned assignment (and its objective,
// accumulated in a fixed order) is therefore bit-identical across runs and
// across thread counts; only the diagnostic work counters (proposals,
// steals, rounds) and timings vary with scheduling.

#ifndef LACB_MATCHING_APPROX_PARALLEL_BMATCH_H_
#define LACB_MATCHING_APPROX_PARALLEL_BMATCH_H_

#include <cstdint>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/la/matrix.h"
#include "lacb/matching/approx/scoring.h"
#include "lacb/matching/solve_stats.h"

namespace lacb::matching::approx {

/// \brief Parallel solver configuration.
struct BMatchOptions {
  /// Worker threads. The assignment is bit-identical at any value; 1 runs
  /// inline on the calling thread (no spawns, no atomic contention).
  size_t num_threads = 1;
};

/// \brief One solve's result.
struct BMatchResult {
  /// col_of_row[r] = matched column of request r, or matching::kUnmatched.
  std::vector<int64_t> col_of_row;
  /// Objective: Σ matched float32 scores, accumulated in (column, row)
  /// order so the double sum is deterministic too.
  double total_weight = 0.0;
  /// Barrier-synchronized proposal rounds until convergence.
  uint64_t rounds = 0;
  /// Proposal attempts across all threads (schedule-dependent).
  uint64_t proposals = 0;
  /// Work items claimed from another thread's chunk (schedule-dependent).
  uint64_t steals = 0;
};

/// \brief ½-approx maximum-weight b-matching of `scores` (rows = requests,
/// cols = brokers) under per-column `capacities` (entries ≥ 0).
///
/// NaN scores are treated as missing edges. Negative edges are matchable
/// (mirroring the exact assignment path, which also commits negative
/// refined utilities); the ½-approximation guarantee is stated against
/// instances with non-negative weights. When `stats` is non-null the solve
/// is described into it (backend "bmatch": rounds/proposals/steals,
/// phase timings, objective).
Result<BMatchResult> ParallelBMatch(const ScoreMatrix& scores,
                                    const std::vector<int64_t>& capacities,
                                    const BMatchOptions& options = {},
                                    SolveStats* stats = nullptr);

/// \brief Convenience overload: converts `weights` to the float score
/// domain first (the conversion is attributed to the build phase).
Result<BMatchResult> ParallelBMatch(const la::Matrix& weights,
                                    const std::vector<int64_t>& capacities,
                                    const BMatchOptions& options = {},
                                    SolveStats* stats = nullptr);

}  // namespace lacb::matching::approx

#endif  // LACB_MATCHING_APPROX_PARALLEL_BMATCH_H_
