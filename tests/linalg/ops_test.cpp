// The in-place kernels backing the barrier solver's zero-allocation
// Newton loop (DESIGN.md §10).  tests/linalg/cholesky_test.cpp checks the
// Cholesky factor and solve against known answers and residuals.
#include "linalg/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "support/rng.h"

namespace ldafp::linalg {
namespace {

TEST(OpsKernelTest, SymMatvecQuadMatchesReference) {
  support::Rng rng(11);
  const Matrix a = random_spd(7, 0.5, 4.0, rng);
  Vector x(7);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-2.0, 2.0);

  Vector out(7);
  const double quad = sym_matvec_quad(a, x, out);

  const Vector ref = a * x;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], ref[i]) << "i=" << i;
  }
  EXPECT_NEAR(quad, quadratic_form(a, x), 1e-12 * (1.0 + std::abs(quad)));
}

TEST(OpsKernelTest, CholeskyFactorInPlaceRejectsIndefinite) {
  // Indefinite matrix: eigenvalues 3 and -1.
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_FALSE(cholesky_factor_in_place(a));
}

TEST(OpsKernelTest, CholeskyInPlaceReadsOnlyTheLowerTriangle) {
  // The barrier solver assembles only the lower triangle of its Newton
  // systems.  With NaN above the diagonal, the factor and the solve must
  // be bitwise those of the full symmetric matrix, and the NaNs must stay
  // where they were.
  support::Rng rng(16);
  const std::size_t n = 9;
  const Matrix a = random_spd(n, 0.5, 4.0, rng);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-3.0, 3.0);

  Matrix full = a;
  ASSERT_TRUE(cholesky_factor_in_place(full));
  Vector x_full = b;
  cholesky_solve_in_place(full, x_full);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix lower = a;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) lower(r, c) = nan;
  }
  ASSERT_TRUE(cholesky_factor_in_place(lower));
  Vector x_lower = b;
  cholesky_solve_in_place(lower, x_lower);

  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c > r) {
        EXPECT_TRUE(std::isnan(lower(r, c))) << r << "," << c;
      } else {
        const double got = lower(r, c);
        const double want = full(r, c);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << r << "," << c;
      }
    }
  }
  EXPECT_EQ(std::memcmp(x_lower.data(), x_full.data(), n * sizeof(double)),
            0);
}

}  // namespace
}  // namespace ldafp::linalg
