#include "lacb/la/linalg.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lacb::la {

namespace {

using v2d = double __attribute__((vector_size(16)));

// out[k] = Σ_i g[k][i]²/d[i] in i order for K sums side by side. Each
// 2-lane division forms the terms of two consecutive i, which are then
// added one at a time.
template <size_t K>
void SumQuadraticForms(const double* const* g, const double* d, size_t n,
                       double* out) {
  double acc[K] = {};
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    v2d dv;
    std::memcpy(&dv, d + i, sizeof(dv));
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) {
      v2d gv;
      std::memcpy(&gv, g[k] + i, sizeof(gv));
      v2d t = gv * gv / dv;
      acc[k] += t[0];
      acc[k] += t[1];
    }
  }
  for (; i < n; ++i) {
    for (size_t k = 0; k < K; ++k) acc[k] += g[k][i] * g[k][i] / d[i];
  }
  for (size_t k = 0; k < K; ++k) out[k] = acc[k];
}

}  // namespace

Result<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 1e-12) {
          return Status::FailedPrecondition(
              "Cholesky: matrix is not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

Result<Vector> CholeskySolve(const Matrix& l, const Vector& b) {
  size_t n = l.rows();
  if (l.cols() != n || b.size() != n) {
    return Status::InvalidArgument("CholeskySolve shape mismatch");
  }
  // Forward solve L y = b.
  Vector y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back solve Lᵀ x = y.
  Vector x(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

Result<Matrix> SpdInverse(const Matrix& a) {
  LACB_ASSIGN_OR_RETURN(Matrix l, CholeskyFactor(a));
  size_t n = a.rows();
  Matrix inv(n, n, 0.0);
  Vector e(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    LACB_ASSIGN_OR_RETURN(Vector col, CholeskySolve(l, e));
    e[j] = 0.0;
    for (size_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  return inv;
}

Result<ShermanMorrisonInverse> ShermanMorrisonInverse::Create(size_t dim,
                                                              double lambda) {
  if (dim == 0) {
    return Status::InvalidArgument("covariance dimension must be positive");
  }
  if (lambda <= 0.0) {
    return Status::InvalidArgument("covariance ridge lambda must be positive");
  }
  return ShermanMorrisonInverse(Matrix::Identity(dim, 1.0 / lambda));
}

Status ShermanMorrisonInverse::RankOneUpdate(const Vector& g) {
  if (g.size() != inv_.rows()) {
    return Status::InvalidArgument("RankOneUpdate dimension mismatch");
  }
  LACB_ASSIGN_OR_RETURN(Vector dg, inv_.MatVec(g));
  double denom = 1.0 + Dot(g, dg);
  // D is SPD so denom >= 1; this guards numerical drift only.
  if (denom <= 1e-12) {
    return Status::Internal("Sherman-Morrison update became singular");
  }
  LACB_RETURN_NOT_OK(inv_.AddOuter(dg, -1.0 / denom));
  return Status::OK();
}

Result<double> ShermanMorrisonInverse::QuadraticForm(const Vector& g) const {
  if (g.size() != inv_.rows()) {
    return Status::InvalidArgument("QuadraticForm dimension mismatch");
  }
  LACB_ASSIGN_OR_RETURN(Vector dg, inv_.MatVec(g));
  return Dot(g, dg);
}

Result<DiagonalInverse> DiagonalInverse::Create(size_t dim, double lambda) {
  if (dim == 0) {
    return Status::InvalidArgument("covariance dimension must be positive");
  }
  if (lambda <= 0.0) {
    return Status::InvalidArgument("covariance ridge lambda must be positive");
  }
  return DiagonalInverse(Vector(dim, lambda));
}

Status DiagonalInverse::RankOneUpdate(const Vector& g) {
  if (g.size() != diag_.size()) {
    return Status::InvalidArgument("RankOneUpdate dimension mismatch");
  }
  for (size_t i = 0; i < g.size(); ++i) diag_[i] += g[i] * g[i];
  return Status::OK();
}

Result<double> DiagonalInverse::QuadraticForm(const Vector& g) const {
  if (g.size() != diag_.size()) {
    return Status::InvalidArgument("QuadraticForm dimension mismatch");
  }
  double acc = 0.0;
  for (size_t i = 0; i < g.size(); ++i) acc += g[i] * g[i] / diag_[i];
  return acc;
}

Status DiagonalInverse::QuadraticForms(const std::vector<Vector>& gs,
                                       Vector* out) const {
  for (const Vector& g : gs) {
    if (g.size() != diag_.size()) {
      return Status::InvalidArgument("QuadraticForm dimension mismatch");
    }
  }
  out->resize(gs.size());
  const double* g[4];
  for (size_t k = 0; k < gs.size();) {
    size_t group = std::min<size_t>(gs.size() - k, 4);
    if (group == 3) group = 2;
    for (size_t a = 0; a < group; ++a) g[a] = gs[k + a].data();
    double* dst = out->data() + k;
    switch (group) {
      case 4:
        SumQuadraticForms<4>(g, diag_.data(), diag_.size(), dst);
        break;
      case 2:
        SumQuadraticForms<2>(g, diag_.data(), diag_.size(), dst);
        break;
      default:
        SumQuadraticForms<1>(g, diag_.data(), diag_.size(), dst);
    }
    k += group;
  }
  return Status::OK();
}

}  // namespace lacb::la
