#include "lacb/matching/approx/scoring.h"

namespace lacb::matching::approx {

namespace {

Status CheckEligible(const la::Matrix& utility,
                     const std::vector<size_t>& eligible) {
  for (size_t c : eligible) {
    if (c >= utility.cols()) {
      return Status::OutOfRange("eligible broker column out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Status GatherColumns(const la::Matrix& utility,
                     const std::vector<size_t>& eligible, la::Matrix* out) {
  LACB_RETURN_NOT_OK(CheckEligible(utility, eligible));
  out->Resize(utility.rows(), eligible.size());
  const size_t m = eligible.size();
  const size_t* idx = eligible.data();
  for (size_t r = 0; r < utility.rows(); ++r) {
    const double* src = utility.RowPtr(r);
    double* dst = out->RowPtr(r);
    for (size_t i = 0; i < m; ++i) dst[i] = src[idx[i]];
  }
  return Status::OK();
}

Status GatherColumnsTransposed(const la::Matrix& utility,
                               const std::vector<size_t>& eligible,
                               la::Matrix* out) {
  LACB_RETURN_NOT_OK(CheckEligible(utility, eligible));
  out->Resize(eligible.size(), utility.rows());
  const size_t n = utility.rows();
  for (size_t i = 0; i < eligible.size(); ++i) {
    const size_t c = eligible[i];
    double* dst = out->RowPtr(i);
    // Strided source walk; the contiguous store is what vectorizes.
    for (size_t r = 0; r < n; ++r) dst[r] = utility(r, c);
  }
  return Status::OK();
}

Status GatherRefinedColumns(const la::Matrix& utility,
                            const std::vector<size_t>& eligible,
                            const std::vector<double>& column_delta,
                            la::Matrix* out) {
  if (column_delta.size() != eligible.size()) {
    return Status::InvalidArgument(
        "column_delta must have one entry per eligible column");
  }
  LACB_RETURN_NOT_OK(CheckEligible(utility, eligible));
  out->Resize(utility.rows(), eligible.size());
  const size_t m = eligible.size();
  const size_t* idx = eligible.data();
  const double* delta = column_delta.data();
  for (size_t r = 0; r < utility.rows(); ++r) {
    const double* src = utility.RowPtr(r);
    double* dst = out->RowPtr(r);
    for (size_t i = 0; i < m; ++i) dst[i] = src[idx[i]] + delta[i];
  }
  return Status::OK();
}

void ToScoreMatrix(const la::Matrix& weights, ScoreMatrix* out) {
  out->Reset(weights.rows(), weights.cols());
  const double* src = weights.data().data();
  float* dst = out->data.data();
  const size_t total = weights.rows() * weights.cols();
  for (size_t i = 0; i < total; ++i) dst[i] = static_cast<float>(src[i]);
}

}  // namespace lacb::matching::approx
