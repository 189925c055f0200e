#include "linalg/lu.h"

#include <gtest/gtest.h>

#include "linalg/ops.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::linalg {
namespace {

TEST(LuTest, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = Lu(a).solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuTest, PivotsOnZeroDiagonal) {
  // Without pivoting this matrix fails immediately (a00 = 0).
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = Lu(a).solve(Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(LuTest, ThrowsOnSingular) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(Lu{a}, ldafp::NumericalError);
}

TEST(LuTest, RejectsNonSquare) {
  EXPECT_THROW(Lu{Matrix(2, 3)}, ldafp::InvalidArgumentError);
}

TEST(LuTest, InverseTimesOriginalIsIdentity) {
  // One factorization, n right-hand sides: the unit vectors' solutions
  // are the columns of A⁻¹.
  support::Rng rng(7);
  const Matrix a = random_gaussian_matrix(6, 6, rng);
  const Lu lu(a);
  Matrix inv(6, 6);
  for (std::size_t c = 0; c < 6; ++c) {
    Vector e(6);
    e[c] = 1.0;
    inv.set_col(c, lu.solve(e));
  }
  EXPECT_LT(max_abs_diff(inv * a, Matrix::identity(6)), 1e-9);
}

TEST(LuTest, MatrixSolve) {
  // A X = B, one column of B at a time on the same factorization.
  const Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  const Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  const Lu lu(a);
  const Vector x0 = lu.solve(b.col(0));
  const Vector x1 = lu.solve(b.col(1));
  EXPECT_DOUBLE_EQ(x0[0], 1.0);
  EXPECT_DOUBLE_EQ(x1[1], 3.0);
}

class LuRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomTest, SolveResidualSmall) {
  const std::size_t n = GetParam();
  support::Rng rng(300 + n);
  const Matrix a = random_gaussian_matrix(n, n, rng);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.gaussian();
  const Vector x = Lu(a).solve(b);
  EXPECT_LT((a * x - b).norm_inf(), 1e-8 * (1.0 + b.norm_inf()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace ldafp::linalg
