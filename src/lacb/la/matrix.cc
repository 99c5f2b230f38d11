#include "lacb/la/matrix.h"

#include <cmath>

namespace lacb::la {

Matrix Matrix::Identity(size_t n, double scale) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = scale;
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, double stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

Result<Matrix> Matrix::MatMul(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("MatMul shape mismatch");
  }
  Matrix out(rows_, other.cols_, 0.0);
  // i-k-j order keeps the inner loop streaming over contiguous rows.
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* brow = other.RowPtr(k);
      double* orow = out.RowPtr(i);
      for (size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Result<Vector> Matrix::MatVec(const Vector& v) const {
  if (v.size() != cols_) {
    return Status::InvalidArgument("MatVec shape mismatch");
  }
  Vector out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += row[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Result<Vector> Matrix::TransposeMatVec(const Vector& v) const {
  if (v.size() != rows_) {
    return Status::InvalidArgument("TransposeMatVec shape mismatch");
  }
  Vector out(cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double a = v[i];
    if (a == 0.0) continue;
    const double* row = RowPtr(i);
    for (size_t j = 0; j < cols_; ++j) out[j] += a * row[j];
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Status Matrix::AddOuter(const Vector& v, double scale) {
  if (rows_ != cols_ || v.size() != rows_) {
    return Status::InvalidArgument("AddOuter requires square matrix and matching vector");
  }
  for (size_t i = 0; i < rows_; ++i) {
    double a = scale * v[i];
    if (a == 0.0) continue;
    double* row = RowPtr(i);
    for (size_t j = 0; j < cols_; ++j) row[j] += a * v[j];
  }
  return Status::OK();
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::OperatorNormEstimate(size_t iters) const {
  if (empty()) return 0.0;
  // Power iteration on AᵀA: x <- normalize(Aᵀ(Ax)); σ_max = ‖Ax‖.
  Vector x(cols_, 1.0 / std::sqrt(static_cast<double>(cols_)));
  double sigma = 0.0;
  for (size_t it = 0; it < iters; ++it) {
    Vector ax = MatVec(x).value();
    sigma = Norm2(ax);
    Vector atax = TransposeMatVec(ax).value();
    double n = Norm2(atax);
    if (n <= 0.0) return 0.0;
    for (double& v : atax) v /= n;
    x = std::move(atax);
  }
  return sigma;
}

double Dot(const Vector& a, const Vector& b) {
  LACB_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(double scale, const Vector& x, Vector* y) {
  LACB_CHECK_EQ(x.size(), y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += scale * x[i];
}

double Norm2(const Vector& v) { return std::sqrt(Dot(v, v)); }

}  // namespace lacb::la
