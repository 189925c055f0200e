// The one Cholesky: the in-place factor and solve kernels the barrier
// solver runs, and solve_spd_or_lu, conventional LDA's Eq. 11 solve built
// on them with a pivoted-LU fallback.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/vector.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::linalg {
namespace {

/// The factor L of A = L Lᵀ with the strict upper triangle zeroed (the
/// in-place kernel leaves A's upper triangle there untouched).
Matrix lower_factor(const Matrix& a) {
  Matrix l = a;
  EXPECT_TRUE(cholesky_factor_in_place(l));
  for (std::size_t r = 0; r < l.rows(); ++r) {
    for (std::size_t c = r + 1; c < l.cols(); ++c) l(r, c) = 0.0;
  }
  return l;
}

TEST(CholeskyTest, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
  const Matrix l = lower_factor(Matrix{{4.0, 2.0}, {2.0, 3.0}});
  EXPECT_EQ(l(0, 0), 2.0);
  EXPECT_EQ(l(1, 0), 1.0);
  EXPECT_EQ(l(1, 1), std::sqrt(2.0));
}

TEST(CholeskyTest, SolveKnownSystem) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  Matrix l = a;
  ASSERT_TRUE(cholesky_factor_in_place(l));
  Vector x{10.0, 8.0};
  cholesky_solve_in_place(l, x);
  // Check residual A x == b.
  const Vector r = a * x - Vector{10.0, 8.0};
  EXPECT_LT(r.norm_inf(), 1e-12);
}

TEST(CholeskyTest, LogDetMatchesKnownDeterminant) {
  // det(A) = prod(L_ii)^2, so log det(A) = 2 * sum(log L_ii).
  const Matrix l = lower_factor(Matrix{{4.0, 2.0}, {2.0, 3.0}});  // det 8
  EXPECT_NEAR(2.0 * (std::log(l(0, 0)) + std::log(l(1, 1))), std::log(8.0),
              1e-12);
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  // One factor, n right-hand sides: solving the unit vectors gives A⁻¹
  // column by column (the solve leaves the factor untouched).
  support::Rng rng(5);
  const Matrix a = random_spd(5, 0.5, 4.0, rng);
  Matrix l = a;
  ASSERT_TRUE(cholesky_factor_in_place(l));
  Matrix inv(5, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    Vector e(5);
    e[c] = 1.0;
    cholesky_solve_in_place(l, e);
    inv.set_col(c, e);
  }
  EXPECT_LT(max_abs_diff(inv * a, Matrix::identity(5)), 1e-10);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_factor_in_place(a));
  // Rank-1 PSD: the second pivot is exactly zero, also not PD.
  Matrix psd = Matrix::outer(Vector{1.0, 2.0}, Vector{1.0, 2.0});
  EXPECT_FALSE(cholesky_factor_in_place(psd));
}

TEST(CholeskyTest, SolveSpdOrLuSolvesSpdSystem) {
  support::Rng rng(5);
  const Matrix a = random_spd(5, 0.5, 4.0, rng);
  Vector b(5);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.gaussian();
  const Vector x = solve_spd_or_lu(a, b);
  // Bitwise the in-place kernels' answer.
  Matrix l = a;
  ASSERT_TRUE(cholesky_factor_in_place(l));
  Vector ref = b;
  cholesky_solve_in_place(l, ref);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], ref[i]);
  EXPECT_LT((a * x - b).norm_inf(), 1e-10 * (1.0 + b.norm_inf()));
}

TEST(CholeskyTest, SolveSpdOrLuFallsBackToLu) {
  // Symmetric but indefinite: Cholesky rejects it, pivoted LU solves it.
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};
  const Vector b{5.0, 4.0};
  const Vector x = solve_spd_or_lu(a, b);  // x = (1, 2)
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  // Singular as well as not PD: LU has nothing to fall back on.
  const Matrix singular = Matrix::outer(Vector{1.0, 2.0}, Vector{1.0, 2.0});
  EXPECT_THROW(solve_spd_or_lu(singular, b), ldafp::NumericalError);
}

TEST(CholeskyTest, ThrowsOnAsymmetric) {
  const Matrix a{{1.0, 0.5}, {0.0, 1.0}};
  EXPECT_THROW(solve_spd_or_lu(a, Vector{1.0, 1.0}),
               ldafp::InvalidArgumentError);
}

class CholeskyRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskyRandomTest, ReconstructionAndSolveResidual) {
  const std::size_t n = GetParam();
  support::Rng rng(100 + n);
  const Matrix a = random_spd(n, 0.1, 10.0, rng);
  const Matrix l = lower_factor(a);

  // L Lᵀ == A.
  const Matrix recon = l * l.transposed();
  EXPECT_LT(max_abs_diff(recon, a), 1e-10 * (1.0 + a.norm_max()));

  // Solve residual.
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.gaussian();
  Vector x = b;
  cholesky_solve_in_place(l, x);
  EXPECT_LT((a * x - b).norm_inf(), 1e-9 * (1.0 + b.norm_inf()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace ldafp::linalg
