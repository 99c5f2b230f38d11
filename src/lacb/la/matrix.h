// Dense row-major matrix and vector helpers.
//
// This is the numeric substrate shared by the neural-network module (layer
// weights, batched matmul) and the bandit module (covariance matrices).
// Sizes in this library are small (hundreds to a few thousand), so a simple
// cache-friendly row-major implementation is sufficient and keeps the code
// auditable.

#ifndef LACB_LA_MATRIX_H_
#define LACB_LA_MATRIX_H_

#include <cstddef>
#include <vector>

#include "lacb/common/logging.h"
#include "lacb/common/result.h"
#include "lacb/common/rng.h"

namespace lacb::la {

using Vector = std::vector<double>;

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// \brief Identity matrix scaled by `scale`.
  static Matrix Identity(size_t n, double scale = 1.0);

  /// \brief Matrix with i.i.d. Gaussian entries.
  static Matrix Gaussian(size_t rows, size_t cols, double stddev, Rng* rng);

  /// \brief Reshapes to rows × cols for a caller that overwrites every
  /// entry: storage is reused, so no allocation once the matrix has held
  /// that many entries; entries kept from before are not reset.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    LACB_CHECK_LT(r, rows_);
    LACB_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    LACB_CHECK_LT(r, rows_);
    LACB_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// \brief Unchecked access for hot loops.
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }

  Vector& data() { return data_; }
  const Vector& data() const { return data_; }

  /// \brief this * other; InvalidArgument on shape mismatch.
  Result<Matrix> MatMul(const Matrix& other) const;

  /// \brief this * v (v of length cols()); InvalidArgument on mismatch.
  Result<Vector> MatVec(const Vector& v) const;

  /// \brief thisᵀ * v (v of length rows()); InvalidArgument on mismatch.
  Result<Vector> TransposeMatVec(const Vector& v) const;

  Matrix Transposed() const;

  /// \brief Adds `scale * v vᵀ` to this square matrix (rank-1 update).
  Status AddOuter(const Vector& v, double scale = 1.0);

  /// \brief Element-wise in-place scaling.
  void Scale(double s);

  /// \brief Frobenius norm.
  double FrobeniusNorm() const;

  /// \brief Largest singular value estimated by power iteration on AᵀA.
  ///
  /// Used to check the ‖W‖_op ≤ ξ assumption of Theorem 1.
  double OperatorNormEstimate(size_t iters = 50) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  Vector data_;
};

/// \brief Dot product; lengths must match (checked).
double Dot(const Vector& a, const Vector& b);

/// \brief y += scale * x (lengths must match, checked).
void Axpy(double scale, const Vector& x, Vector* y);

/// \brief Euclidean norm.
double Norm2(const Vector& v);

}  // namespace lacb::la

#endif  // LACB_LA_MATRIX_H_
