#include "linalg/lu.h"

#include <cmath>

#include "support/error.h"

namespace ldafp::linalg {

Lu::Lu(const Matrix& a) : lu_(a) {
  LDAFP_CHECK(a.square(), "lu requires a square matrix");
  const std::size_t n = a.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest magnitude in this column at or below the
    // diagonal.
    std::size_t pivot = col;
    double best = std::fabs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best == 0.0) {
      throw ldafp::NumericalError("lu: matrix is singular at column " +
                                  std::to_string(col));
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(pivot, c), lu_(col, c));
      }
      std::swap(perm_[pivot], perm_[col]);
    }
    const double inv_pivot = 1.0 / lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) * inv_pivot;
      lu_(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
}

Vector Lu::solve(const Vector& b) const {
  LDAFP_CHECK(b.size() == size(), "lu solve dimension mismatch");
  const std::size_t n = size();
  // Forward substitution with the permuted right-hand side (L has a unit
  // diagonal).
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) s -= lu_(i, k) * y[k];
    y[i] = s;
  }
  // Backward substitution against U.
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= lu_(i, k) * x[k];
    x[i] = s / lu_(i, i);
  }
  return x;
}

}  // namespace ldafp::linalg
