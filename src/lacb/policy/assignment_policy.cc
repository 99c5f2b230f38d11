#include "lacb/policy/assignment_policy.h"

#include "lacb/matching/approx/scoring.h"
#include "lacb/matching/assignment.h"

namespace lacb::policy {

Result<std::vector<int64_t>> SolveBatchAssignment(
    const la::Matrix& utility, const std::vector<size_t>& eligible,
    bool pad_to_square, matching::SolveStats* stats) {
  namespace approx = matching::approx;
  const size_t num_requests = utility.rows();
  std::vector<int64_t> out(num_requests, matching::kUnmatched);
  if (eligible.empty() || num_requests == 0) return out;
  // The gathers reject eligible columns outside the utility width.
  if (eligible.size() >= num_requests) {
    la::Matrix w;
    LACB_RETURN_NOT_OK(approx::GatherColumns(utility, eligible, &w));
    matching::Assignment a;
    if (pad_to_square) {
      LACB_ASSIGN_OR_RETURN(la::Matrix square, matching::PadToSquare(w));
      LACB_ASSIGN_OR_RETURN(a, matching::MaxWeightAssignment(square, stats));
    } else {
      LACB_ASSIGN_OR_RETURN(a, matching::MaxWeightAssignment(w, stats));
    }
    for (size_t r = 0; r < num_requests; ++r) {
      int64_t col = a.col_of_row[r];
      if (col != matching::kUnmatched) {
        out[r] = static_cast<int64_t>(eligible[static_cast<size_t>(col)]);
      }
    }
    return out;
  }

  // Fewer brokers than requests: solve the transposed problem so every
  // eligible broker serves exactly one request; the rest stay unmatched.
  la::Matrix w;
  LACB_RETURN_NOT_OK(approx::GatherColumnsTransposed(utility, eligible, &w));
  LACB_ASSIGN_OR_RETURN(matching::Assignment a,
                        matching::MaxWeightAssignment(w, stats));
  for (size_t c = 0; c < eligible.size(); ++c) {
    int64_t r = a.col_of_row[c];
    if (r != matching::kUnmatched) {
      out[static_cast<size_t>(r)] = static_cast<int64_t>(eligible[c]);
    }
  }
  return out;
}

}  // namespace lacb::policy
