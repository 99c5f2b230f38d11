// Batched affinity scoring into contiguous row-major matrices.
//
// Every matching backend starts from the same construction: gather the
// eligible broker columns of the batch utility matrix (optionally adding a
// per-column refinement delta — LACB's Eq. 15 scarcity price) into a dense
// row-major score matrix. These kernels centralize that construction so the
// exact-KM path, the parallel approximate path, and the policies all share
// one auto-vectorizable inner loop instead of three hand-rolled copies.
//
// Two output domains:
//   * la::Matrix (double)  — the exact solvers' comparison domain.
//   * ScoreMatrix (float)  — the parallel b-matching solver's domain: a
//     float32 score packs with a request index into one 64-bit word, which
//     is what makes the solver's lock-free CAS slots (and therefore its
//     thread-count-independent determinism) possible.

#ifndef LACB_MATCHING_APPROX_SCORING_H_
#define LACB_MATCHING_APPROX_SCORING_H_

#include <cstddef>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/la/matrix.h"

namespace lacb::matching::approx {

/// \brief Dense row-major float32 affinity matrix (the approximate
/// solver's comparison domain).
struct ScoreMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<float> data;

  void Reset(size_t r, size_t c) {
    rows = r;
    cols = c;
    data.assign(r * c, 0.0f);
  }
  float* RowPtr(size_t r) { return data.data() + r * cols; }
  const float* RowPtr(size_t r) const { return data.data() + r * cols; }
  float At(size_t r, size_t c) const { return data[r * cols + c]; }
  float& At(size_t r, size_t c) { return data[r * cols + c]; }
};

/// \brief Gathers eligible columns: out(r, i) = utility(r, eligible[i]).
/// OutOfRange when an eligible column exceeds the utility width. Every
/// gather here overwrites *out whole and reuses its storage, so a caller
/// that keeps *out across batches allocates nothing once it is sized.
Status GatherColumns(const la::Matrix& utility,
                     const std::vector<size_t>& eligible, la::Matrix* out);

/// \brief Transposed gather: out(i, r) = utility(r, eligible[i]) — the
/// fewer-brokers-than-requests orientation of the exact solvers.
Status GatherColumnsTransposed(const la::Matrix& utility,
                               const std::vector<size_t>& eligible,
                               la::Matrix* out);

/// \brief Fused gather + per-column additive refinement:
/// out(r, i) = utility(r, eligible[i]) + column_delta[i].
/// column_delta must have one entry per eligible column.
Status GatherRefinedColumns(const la::Matrix& utility,
                            const std::vector<size_t>& eligible,
                            const std::vector<double>& column_delta,
                            la::Matrix* out);

/// \brief Plain dense conversion of a prebuilt weight matrix.
void ToScoreMatrix(const la::Matrix& weights, ScoreMatrix* out);

}  // namespace lacb::matching::approx

#endif  // LACB_MATCHING_APPROX_SCORING_H_
