// Householder QR factorization.
//
// Its one caller is random_orthogonal (linalg/ops.h), which random_spd
// builds on to draw the structured covariances of the tests and benches.
#pragma once

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace ldafp::linalg {

/// A = Q R with Q orthonormal (rows x rows) and R upper trapezoidal.
/// Requires rows >= cols (tall or square).
class Qr {
 public:
  /// Factors `a`.  Throws InvalidArgumentError when rows < cols.
  explicit Qr(const Matrix& a);

  /// Thin Q factor (rows x cols, orthonormal columns).
  Matrix thin_q() const;

  /// Thin R factor (cols x cols, upper triangular).
  Matrix thin_r() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Matrix qr_;       // R above the diagonal, Householder vectors below
  Vector tau_;      // Householder scales
};

}  // namespace ldafp::linalg
