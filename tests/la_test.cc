// Unit tests for lacb/la: Matrix ops, Cholesky, Sherman–Morrison inverse.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "lacb/common/rng.h"
#include "lacb/la/linalg.h"
#include "lacb/la/matrix.h"

namespace lacb::la {
namespace {

TEST(MatrixTest, IdentityAndAccess) {
  Matrix m = Matrix::Identity(3, 2.0);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(MatrixTest, MatMul) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  for (int i = 0; i < 6; ++i) {
    a.data()[i] = av[i];
    b.data()[i] = bv[i];
  }
  auto c = a.MatMul(b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ((*c)(0, 0), 58.0);
  EXPECT_DOUBLE_EQ((*c)(0, 1), 64.0);
  EXPECT_DOUBLE_EQ((*c)(1, 0), 139.0);
  EXPECT_DOUBLE_EQ((*c)(1, 1), 154.0);
}

TEST(MatrixTest, MatMulShapeMismatch) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_FALSE(a.MatMul(b).ok());
}

TEST(MatrixTest, MatVecAndTranspose) {
  Matrix a(2, 3);
  double av[] = {1, 2, 3, 4, 5, 6};
  for (int i = 0; i < 6; ++i) a.data()[i] = av[i];
  Vector x = {1.0, 0.0, -1.0};
  auto y = a.MatVec(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)[0], -2.0);
  EXPECT_DOUBLE_EQ((*y)[1], -2.0);

  Vector z = {1.0, 1.0};
  auto t = a.TransposeMatVec(z);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ((*t)[0], 5.0);
  EXPECT_DOUBLE_EQ((*t)[1], 7.0);
  EXPECT_DOUBLE_EQ((*t)[2], 9.0);

  Matrix at = a.Transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
  EXPECT_FALSE(a.MatVec({1.0}).ok());
  EXPECT_FALSE(a.TransposeMatVec({1.0}).ok());
}

TEST(MatrixTest, AddOuterAndScale) {
  Matrix m = Matrix::Identity(2);
  ASSERT_TRUE(m.AddOuter({1.0, 2.0}, 0.5).ok());
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
  m.Scale(2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 6.0);
  EXPECT_FALSE(Matrix(2, 3).AddOuter({1.0, 2.0}).ok());
}

TEST(MatrixTest, FrobeniusAndOperatorNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  // Diagonal matrix: operator norm is the largest |diagonal|.
  EXPECT_NEAR(m.OperatorNormEstimate(), 4.0, 1e-6);
}

TEST(VectorOpsTest, DotAxpyNorm) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  Axpy(2.0, a, &b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
}

TEST(CholeskyTest, FactorAndSolve) {
  // SPD matrix A = [[4,2],[2,3]].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_DOUBLE_EQ((*l)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*l)(1, 0), 1.0);
  EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-12);

  auto x = CholeskySolve(*l, {10.0, 8.0});
  ASSERT_TRUE(x.ok());
  // Verify A x = b.
  EXPECT_NEAR(4 * (*x)[0] + 2 * (*x)[1], 10.0, 1e-10);
  EXPECT_NEAR(2 * (*x)[0] + 3 * (*x)[1], 8.0, 1e-10);
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 5;
  a(1, 0) = 5;
  a(1, 1) = 1;  // indefinite
  EXPECT_FALSE(CholeskyFactor(a).ok());
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(SpdInverseTest, RoundTrip) {
  Matrix a(3, 3);
  a(0, 0) = 5;
  a(1, 1) = 7;
  a(2, 2) = 9;
  a(0, 1) = a(1, 0) = 1;
  a(1, 2) = a(2, 1) = 2;
  auto inv = SpdInverse(a);
  ASSERT_TRUE(inv.ok());
  auto prod = a.MatMul(*inv);
  ASSERT_TRUE(prod.ok());
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR((*prod)(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(ShermanMorrisonTest, MatchesDirectInverse) {
  Rng rng(9);
  const size_t d = 6;
  double lambda = 0.5;
  auto sm = ShermanMorrisonInverse::Create(d, lambda);
  ASSERT_TRUE(sm.ok());
  Matrix direct = Matrix::Identity(d, lambda);
  for (int step = 0; step < 20; ++step) {
    Vector g(d);
    for (double& v : g) v = rng.Normal();
    ASSERT_TRUE(sm->RankOneUpdate(g).ok());
    ASSERT_TRUE(direct.AddOuter(g).ok());
  }
  auto direct_inv = SpdInverse(direct);
  ASSERT_TRUE(direct_inv.ok());
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(sm->inverse()(i, j), (*direct_inv)(i, j), 1e-8);
    }
  }
  // Quadratic form agrees with the direct computation.
  Vector g(d, 0.3);
  auto qf = sm->QuadraticForm(g);
  ASSERT_TRUE(qf.ok());
  auto dg = direct_inv->MatVec(g);
  EXPECT_NEAR(*qf, Dot(g, *dg), 1e-8);
}

TEST(ShermanMorrisonTest, ValidatesInput) {
  EXPECT_FALSE(ShermanMorrisonInverse::Create(0, 1.0).ok());
  EXPECT_FALSE(ShermanMorrisonInverse::Create(3, 0.0).ok());
  auto sm = ShermanMorrisonInverse::Create(3, 1.0);
  ASSERT_TRUE(sm.ok());
  EXPECT_FALSE(sm->RankOneUpdate({1.0}).ok());
  EXPECT_FALSE(sm->QuadraticForm({1.0}).ok());
}

TEST(DiagonalInverseTest, TracksDiagonal) {
  auto di = DiagonalInverse::Create(3, 2.0);
  ASSERT_TRUE(di.ok());
  ASSERT_TRUE(di->RankOneUpdate({1.0, 0.0, 3.0}).ok());
  // D = diag(2+1, 2, 2+9); quadratic form of e0 = 1/3.
  auto qf = di->QuadraticForm({1.0, 0.0, 0.0});
  ASSERT_TRUE(qf.ok());
  EXPECT_NEAR(*qf, 1.0 / 3.0, 1e-12);
  auto qf2 = di->QuadraticForm({0.0, 0.0, 1.0});
  EXPECT_NEAR(*qf2, 1.0 / 11.0, 1e-12);
}

TEST(DiagonalInverseTest, UpperBoundsFullQuadraticForm) {
  // The diagonal approximation ignores off-diagonal mass, so its widths
  // are generally larger once correlated directions accumulate.
  Rng rng(10);
  const size_t d = 5;
  auto sm = ShermanMorrisonInverse::Create(d, 1.0);
  auto di = DiagonalInverse::Create(d, 1.0);
  ASSERT_TRUE(sm.ok());
  ASSERT_TRUE(di.ok());
  Vector g(d);
  for (double& v : g) v = rng.Normal();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sm->RankOneUpdate(g).ok());
    ASSERT_TRUE(di->RankOneUpdate(g).ok());
  }
  // Along the repeated direction the full matrix shrinks faster.
  EXPECT_LT(sm->QuadraticForm(g).value(), di->QuadraticForm(g).value() + 1e-9);
}

TEST(DiagonalInverseTest, QuadraticFormsMatchOneAtATimeBytes) {
  Rng rng(11);
  for (size_t d : {1, 2, 7, 1377}) {
    auto di = DiagonalInverse::Create(d, 0.001);
    ASSERT_TRUE(di.ok());
    for (int i = 0; i < 5; ++i) {
      Vector g(d);
      for (double& v : g) v = rng.Normal();
      ASSERT_TRUE(di->RankOneUpdate(g).ok());
    }
    for (size_t count : {0, 1, 2, 3, 4, 5, 6, 9}) {
      std::vector<Vector> gs(count, Vector(d));
      for (Vector& g : gs) {
        for (double& v : g) v = rng.Normal() * 1e-3;
      }
      Vector got;
      ASSERT_TRUE(di->QuadraticForms(gs, &got).ok());
      ASSERT_EQ(got.size(), count);
      for (size_t k = 0; k < count; ++k) {
        double want = di->QuadraticForm(gs[k]).value();
        EXPECT_EQ(std::memcmp(&got[k], &want, sizeof(double)), 0)
            << "dim " << d << " count " << count << " k " << k;
      }
    }
  }
  auto di = DiagonalInverse::Create(3, 1.0);
  ASSERT_TRUE(di.ok());
  Vector out;
  EXPECT_FALSE(di->QuadraticForms({Vector(3), Vector(2)}, &out).ok());
}

}  // namespace
}  // namespace lacb::la
