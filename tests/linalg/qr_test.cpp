#include "linalg/qr.h"

#include <gtest/gtest.h>

#include "linalg/ops.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::linalg {
namespace {

TEST(QrTest, RejectsWideMatrices) {
  EXPECT_THROW(Qr{Matrix(2, 3)}, ldafp::InvalidArgumentError);
}

TEST(QrTest, ThinFactorsReconstruct) {
  support::Rng rng(11);
  const Matrix a = random_gaussian_matrix(6, 4, rng);
  const Qr qr(a);
  const Matrix recon = qr.thin_q() * qr.thin_r();
  EXPECT_LT(max_abs_diff(recon, a), 1e-12 * (1.0 + a.norm_max()));
}

TEST(QrTest, ThinQHasOrthonormalColumns) {
  support::Rng rng(13);
  const Matrix a = random_gaussian_matrix(8, 5, rng);
  const Matrix q = Qr(a).thin_q();
  const Matrix gram = q.transposed() * q;
  EXPECT_LT(max_abs_diff(gram, Matrix::identity(5)), 1e-12);
}

TEST(QrTest, ThinRIsUpperTriangular) {
  support::Rng rng(17);
  const Matrix r = Qr(random_gaussian_matrix(5, 5, rng)).thin_r();
  for (std::size_t i = 1; i < 5; ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  }
}

TEST(RandomOrthogonalTest, ProducesOrthogonalMatrix) {
  support::Rng rng(23);
  const Matrix q = random_orthogonal(6, rng);
  const Matrix gram = q.transposed() * q;
  EXPECT_LT(max_abs_diff(gram, Matrix::identity(6)), 1e-12);
}

TEST(RandomSpdTest, EigenvaluesWithinRequestedBand) {
  support::Rng rng(29);
  const Matrix a = random_spd(5, 0.5, 2.0, rng);
  EXPECT_TRUE(a.is_symmetric(1e-12));
  // All quadratic forms must lie within [0.5, 2.0] * ||x||².
  for (int trial = 0; trial < 20; ++trial) {
    Vector x(5);
    for (std::size_t i = 0; i < 5; ++i) x[i] = rng.gaussian();
    const double q = quadratic_form(a, x);
    const double nsq = x.norm2() * x.norm2();
    EXPECT_GE(q, 0.5 * nsq - 1e-9);
    EXPECT_LE(q, 2.0 * nsq + 1e-9);
  }
}

}  // namespace
}  // namespace ldafp::linalg
