#include "linalg/eigen_sym.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/ops.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::linalg {
namespace {

TEST(EigenSymTest, KnownEigenvalues) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  const auto eig = eigen_symmetric(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenSymTest, EigenvaluesAscending) {
  support::Rng rng(31);
  const auto eig = eigen_symmetric(random_spd(7, 0.1, 5.0, rng));
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_LE(eig.eigenvalues[i - 1], eig.eigenvalues[i]);
  }
}

TEST(EigenSymTest, RejectsAsymmetric) {
  EXPECT_THROW(eigen_symmetric(Matrix{{1.0, 2.0}, {0.0, 1.0}}),
               ldafp::InvalidArgumentError);
}

class EigenSymRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymRandomTest, ReconstructionAndOrthogonality) {
  const std::size_t n = GetParam();
  support::Rng rng(500 + n);
  // Symmetric but possibly indefinite.
  Matrix a = random_gaussian_matrix(n, n, rng);
  a += a.transposed();
  const auto eig = eigen_symmetric(a);

  // V diag(λ) Vᵀ == A.
  Matrix recon(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const Vector vk = eig.eigenvectors.col(k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        recon(i, j) += eig.eigenvalues[k] * vk[i] * vk[j];
      }
    }
  }
  EXPECT_LT(max_abs_diff(recon, a), 1e-10 * (1.0 + a.norm_max()));

  // Vᵀ V == I.
  const Matrix gram = eig.eigenvectors.transposed() * eig.eigenvectors;
  EXPECT_LT(max_abs_diff(gram, Matrix::identity(n)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymRandomTest,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 42));

TEST(SqrtPsdTest, SquaresBackToOriginal) {
  support::Rng rng(41);
  const Matrix a = random_spd(5, 0.2, 4.0, rng);
  const Matrix root = sqrt_psd(a);
  EXPECT_LT(max_abs_diff(root * root, a), 1e-10);
}

TEST(SqrtPsdTest, ThrowsOnClearlyNegative) {
  const Matrix a = Matrix::diagonal(Vector{-1.0, 1.0});
  EXPECT_THROW(sqrt_psd(a), ldafp::NumericalError);
}

}  // namespace
}  // namespace ldafp::linalg
