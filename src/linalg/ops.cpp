#include "linalg/ops.h"

#include <cmath>

#include "linalg/lu.h"
#include "linalg/qr.h"
#include "support/error.h"

namespace ldafp::linalg {

Vector solve_spd_or_lu(const Matrix& a, const Vector& b) {
  LDAFP_CHECK(a.square() && a.rows() == b.size(),
              "solve_spd_or_lu dimension mismatch");
  LDAFP_CHECK(a.is_symmetric(1e-9 * (1.0 + a.norm_max())),
              "solve_spd_or_lu requires a symmetric matrix");
  Matrix factor = a;
  if (!cholesky_factor_in_place(factor)) return Lu(a).solve(b);
  Vector x = b;
  cholesky_solve_in_place(factor, x);
  return x;
}

double sym_matvec_quad(const Matrix& a, const Vector& x, Vector& out) {
  LDAFP_CHECK(a.square() && a.rows() == x.size() && out.size() == x.size(),
              "sym_matvec_quad dimension mismatch");
  const std::size_t n = x.size();
  double quad = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += a(r, c) * x[c];
    out[r] = s;
    quad += x[r] * s;
  }
  return quad;
}

bool cholesky_factor_in_place(Matrix& a) {
  LDAFP_CHECK(a.square(), "cholesky_factor_in_place requires square matrix");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (!(diag > 0.0)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }
  return true;
}

void cholesky_solve_in_place(const Matrix& l, Vector& b) {
  LDAFP_CHECK(l.square() && l.rows() == b.size(),
              "cholesky_solve_in_place dimension mismatch");
  const std::size_t n = b.size();
  // Forward substitution L y = b, in place.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * b[k];
    b[i] = s / l(i, i);
  }
  // Backward substitution Lᵀ x = y, in place.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * b[k];
    b[i] = s / l(i, i);
  }
}

Matrix random_gaussian_matrix(std::size_t rows, std::size_t cols,
                              support::Rng& rng) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out(r, c) = rng.gaussian();
  }
  return out;
}

Matrix random_orthogonal(std::size_t n, support::Rng& rng) {
  const Matrix g = random_gaussian_matrix(n, n, rng);
  const Qr qr(g);
  Matrix q = qr.thin_q();
  const Matrix r = qr.thin_r();
  // Multiply each column by sign(R_jj) so the distribution does not favor
  // one orientation.
  for (std::size_t j = 0; j < n; ++j) {
    if (r(j, j) < 0.0) {
      for (std::size_t i = 0; i < n; ++i) q(i, j) = -q(i, j);
    }
  }
  return q;
}

Matrix random_spd(std::size_t n, double lambda_min, double lambda_max,
                  support::Rng& rng) {
  LDAFP_CHECK(0.0 < lambda_min && lambda_min <= lambda_max,
              "random_spd requires 0 < lambda_min <= lambda_max");
  const Matrix q = random_orthogonal(n, rng);
  Vector lambda(n);
  for (std::size_t i = 0; i < n; ++i) {
    lambda[i] = rng.uniform(lambda_min, lambda_max);
  }
  Matrix out(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const Vector qk = q.col(k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        out(i, j) += lambda[k] * qk[i] * qk[j];
      }
    }
  }
  out.symmetrize();
  return out;
}

}  // namespace ldafp::linalg
