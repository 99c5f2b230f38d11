// Bipartite assignment primitives.
//
// The paper's VFGA (Alg. 2) runs the Kuhn–Munkres algorithm each batch on a
// dummy-padded balanced bipartite graph of requests × brokers. We implement
// the potential-based shortest-augmenting-path formulation (Jonker–Volgenant
// style), which is the classical O(n²m) KM and directly supports rectangular
// instances (rows ≤ cols) — equivalent to padding the request side with
// |B| − |R| dummy vertices of weight 0 (the paper's Sec. VI-B discussion;
// the equivalence is unit-tested). A greedy matcher and an explicit padding
// helper are provided alongside.

#ifndef LACB_MATCHING_ASSIGNMENT_H_
#define LACB_MATCHING_ASSIGNMENT_H_

#include <cstdint>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/la/matrix.h"
#include "lacb/matching/solve_stats.h"

namespace lacb::matching {

/// \brief Marker for an unmatched row/column.
inline constexpr int64_t kUnmatched = -1;

/// \brief Result of a bipartite assignment.
struct Assignment {
  /// col_of_row[r] = column matched to row r, or kUnmatched.
  std::vector<int64_t> col_of_row;
  /// Total weight of the matched edges.
  double total_weight = 0.0;
};

/// \brief Maximum-weight assignment of every row to a distinct column.
///
/// `weights` is rows×cols with rows <= cols; every row is matched (the
/// paper's complete-bipartite setting — edges may carry negative refined
/// utilities and are still usable). The solver reads `weights` in place,
/// negating each entry as it loads it, so no cost matrix is built.
/// O(rows²·cols) time. InvalidArgument if any weight is NaN or infinite
/// (the scan checks each row as it first reads it; `stats` is then left
/// as it was). When `stats` is non-null, per-solve introspection (scan
/// steps, dual updates, phase timings) is merged into it; the build phase
/// is only the per-thread workspace setup and reads about 0. The null
/// default skips all bookkeeping.
Result<Assignment> MaxWeightAssignment(const la::Matrix& weights,
                                       SolveStats* stats = nullptr);

/// \brief Same, but rows may be left unmatched when every remaining edge
/// would decrease the total (achieved by clamping gains at zero via a
/// virtual skip column per row).
/// InvalidArgument on any non-finite weight, as above.
Result<Assignment> MaxWeightAssignmentAllowSkip(const la::Matrix& weights,
                                                SolveStats* stats = nullptr);

/// \brief Pads a rows×cols weight matrix (rows <= cols) with zero-weight
/// dummy rows to a square cols×cols matrix — the paper's construction.
Result<la::Matrix> PadToSquare(const la::Matrix& weights);

/// \brief Greedy matcher: repeatedly takes the heaviest remaining edge whose
/// endpoints are both free. O(E log E); a fast inexact baseline.
Result<Assignment> GreedyAssignment(const la::Matrix& weights);

/// \brief Exhaustive matcher over all row permutations; test oracle only
/// (rows <= 9 or so).
Result<Assignment> BruteForceAssignment(const la::Matrix& weights);

}  // namespace lacb::matching

#endif  // LACB_MATCHING_ASSIGNMENT_H_
