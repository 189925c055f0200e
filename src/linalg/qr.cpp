#include "linalg/qr.h"

#include <cmath>

#include "support/error.h"

namespace ldafp::linalg {

Qr::Qr(const Matrix& a)
    : rows_(a.rows()), cols_(a.cols()), qr_(a), tau_(a.cols()) {
  LDAFP_CHECK(rows_ >= cols_, "qr requires rows >= cols");
  for (std::size_t k = 0; k < cols_; ++k) {
    // Build the Householder reflector annihilating column k below the
    // diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < rows_; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -norm : norm;
    const double vk = qr_(k, k) - alpha;
    qr_(k, k) = alpha;
    // Store v (scaled so v_k = 1) below the diagonal.
    for (std::size_t i = k + 1; i < rows_; ++i) qr_(i, k) /= vk;
    tau_[k] = -vk / alpha;  // classic tau = 2 / (vᵀv) with v_k = 1 scaling
    // Apply the reflector to the remaining columns.
    for (std::size_t j = k + 1; j < cols_; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < rows_; ++i) {
        s += qr_(i, k) * qr_(i, j);
      }
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < rows_; ++i) {
        qr_(i, j) -= s * qr_(i, k);
      }
    }
  }
}

Matrix Qr::thin_q() const {
  // Accumulate Q e_j for the first cols_ basis vectors by applying the
  // reflectors in reverse.
  Matrix q(rows_, cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    Vector e(rows_);
    e[j] = 1.0;
    for (std::size_t kk = cols_; kk > 0; --kk) {
      const std::size_t k = kk - 1;
      if (tau_[k] == 0.0) continue;
      double s = e[k];
      for (std::size_t i = k + 1; i < rows_; ++i) s += qr_(i, k) * e[i];
      s *= tau_[k];
      e[k] -= s;
      for (std::size_t i = k + 1; i < rows_; ++i) e[i] -= s * qr_(i, k);
    }
    q.set_col(j, e);
  }
  return q;
}

Matrix Qr::thin_r() const {
  Matrix r(cols_, cols_);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) r(i, j) = qr_(i, j);
  }
  return r;
}

}  // namespace ldafp::linalg
