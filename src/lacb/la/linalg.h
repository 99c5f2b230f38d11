// Factorizations and incremental inverses for SPD matrices.
//
// The bandit covariance matrix D = λI + Σ g gᵀ is symmetric positive
// definite. The UCB confidence width needs the quadratic form gᵀ D⁻¹ g on
// every arm evaluation, so we maintain D⁻¹ incrementally with the
// Sherman–Morrison identity; Cholesky is provided for batch solves and as
// an independent oracle in tests.

#ifndef LACB_LA_LINALG_H_
#define LACB_LA_LINALG_H_

#include "lacb/la/matrix.h"

namespace lacb::la {

/// \brief Cholesky factorization A = L Lᵀ of an SPD matrix.
///
/// Returns InvalidArgument for non-square input and FailedPrecondition when
/// the matrix is not positive definite (within a small pivot tolerance).
Result<Matrix> CholeskyFactor(const Matrix& a);

/// \brief Solves A x = b given the Cholesky factor L of A.
Result<Vector> CholeskySolve(const Matrix& l, const Vector& b);

/// \brief Full inverse of an SPD matrix via Cholesky.
Result<Matrix> SpdInverse(const Matrix& a);

/// \brief Maintains D⁻¹ under rank-1 updates D ← D + g gᵀ.
///
/// Sherman–Morrison: (D + ggᵀ)⁻¹ = D⁻¹ − (D⁻¹g)(D⁻¹g)ᵀ / (1 + gᵀD⁻¹g).
/// Each update and each quadratic-form query is O(d²).
class ShermanMorrisonInverse {
 public:
  /// \brief Starts from D = λ I (λ > 0 keeps D invertible).
  static Result<ShermanMorrisonInverse> Create(size_t dim, double lambda);

  /// \brief Rehydrates from a previously exported inverse() matrix
  /// (checkpoint restore); the matrix must be square and non-empty.
  static Result<ShermanMorrisonInverse> FromInverse(Matrix inv) {
    if (inv.rows() == 0 || inv.rows() != inv.cols()) {
      return Status::InvalidArgument("inverse must be square and non-empty");
    }
    return ShermanMorrisonInverse(std::move(inv));
  }

  /// \brief Applies D ← D + g gᵀ; g must have the right dimension.
  Status RankOneUpdate(const Vector& g);

  /// \brief Computes gᵀ D⁻¹ g (the squared UCB width); checked dimension.
  Result<double> QuadraticForm(const Vector& g) const;

  /// \brief Current D⁻¹ (for tests and batch use).
  const Matrix& inverse() const { return inv_; }

  size_t dim() const { return inv_.rows(); }

 private:
  explicit ShermanMorrisonInverse(Matrix inv) : inv_(std::move(inv)) {}
  Matrix inv_;
};

/// \brief Diagonal approximation of the covariance: D ≈ diag(λ + Σ gᵢ²).
///
/// The standard NeuralUCB practice for large networks: O(d) per update and
/// per query instead of O(d²). Trades confidence-width fidelity for speed;
/// compared against the full matrix in the ablation bench.
class DiagonalInverse {
 public:
  static Result<DiagonalInverse> Create(size_t dim, double lambda);

  /// \brief Rehydrates from a previously exported diagonal() vector.
  static Result<DiagonalInverse> FromDiagonal(Vector diag) {
    if (diag.empty()) {
      return Status::InvalidArgument("diagonal must be non-empty");
    }
    return DiagonalInverse(std::move(diag));
  }

  Status RankOneUpdate(const Vector& g);

  Result<double> QuadraticForm(const Vector& g) const;

  /// \brief (*out)[k] = QuadraticForm(gs[k]), bit for bit: every sum keeps
  /// its own order, but the sums run side by side so their add chains
  /// overlap.
  Status QuadraticForms(const std::vector<Vector>& gs, Vector* out) const;

  size_t dim() const { return diag_.size(); }
  const Vector& diagonal() const { return diag_; }

 private:
  explicit DiagonalInverse(Vector diag) : diag_(std::move(diag)) {}
  Vector diag_;  // diagonal entries of D (not its inverse)
};

}  // namespace lacb::la

#endif  // LACB_LA_LINALG_H_
