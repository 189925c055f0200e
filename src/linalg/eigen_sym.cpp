#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/error.h"

namespace ldafp::linalg {

SymmetricEigen eigen_symmetric(const Matrix& a) {
  LDAFP_CHECK(a.square(), "eigen_symmetric requires a square matrix");
  LDAFP_CHECK(a.is_symmetric(1e-9 * (1.0 + a.norm_max())),
              "eigen_symmetric requires a symmetric matrix");
  const std::size_t n = a.rows();
  Matrix d = a;
  d.symmetrize();
  Matrix v = Matrix::identity(n);

  const int max_sweeps = 100;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Sum of off-diagonal magnitudes decides convergence.
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += std::fabs(d(p, q));
    }
    if (off == 0.0) break;
    const double threshold =
        sweep < 3 ? 0.2 * off / static_cast<double>(n * n) : 0.0;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        const double small = 100.0 * std::fabs(apq);
        // Skip rotations that cannot change the diagonal at double
        // precision.
        if (sweep > 3 &&
            small <= 1e-15 * std::fabs(d(p, p)) &&
            small <= 1e-15 * std::fabs(d(q, q))) {
          d(p, q) = 0.0;
          d(q, p) = 0.0;
          continue;
        }
        if (std::fabs(apq) <= threshold) continue;

        const double theta = (d(q, q) - d(p, p)) / (2.0 * apq);
        double t;
        if (std::fabs(theta) > 1e12) {
          t = 0.5 / theta;
        } else {
          t = 1.0 / (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
          if (theta < 0.0) t = -t;
        }
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);

        const double dpp = d(p, p);
        const double dqq = d(q, q);
        d(p, p) = dpp - t * apq;
        d(q, q) = dqq + t * apq;
        d(p, q) = 0.0;
        d(q, p) = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (i != p && i != q) {
            const double dip = d(i, p);
            const double diq = d(i, q);
            d(i, p) = dip - s * (diq + tau * dip);
            d(p, i) = d(i, p);
            d(i, q) = diq + s * (dip - tau * diq);
            d(q, i) = d(i, q);
          }
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = vip - s * (viq + tau * vip);
          v(i, q) = viq + s * (vip - tau * viq);
        }
      }
    }
    if (sweep + 1 == max_sweeps) {
      throw ldafp::NumericalError("eigen_symmetric: jacobi did not converge");
    }
  }

  // Sort ascending, permuting eigenvector columns alongside.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return d(i, i) < d(j, j);
  });
  SymmetricEigen out;
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = d(order[j], order[j]);
    out.eigenvectors.set_col(j, v.col(order[j]));
  }
  return out;
}

Matrix sqrt_psd(const Matrix& a, double tol) {
  const SymmetricEigen eig = eigen_symmetric(a);
  const std::size_t n = a.rows();
  Matrix out(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    double lambda = eig.eigenvalues[k];
    if (lambda < -tol * (1.0 + a.norm_max())) {
      throw ldafp::NumericalError("sqrt_psd: matrix has negative eigenvalue " +
                                  std::to_string(lambda));
    }
    lambda = std::max(lambda, 0.0);
    const double root = std::sqrt(lambda);
    if (root == 0.0) continue;
    const Vector vk = eig.eigenvectors.col(k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        out(i, j) += root * vk[i] * vk[j];
      }
    }
  }
  out.symmetrize();
  return out;
}

}  // namespace ldafp::linalg
