// LU factorization with partial pivoting.
//
// This is the general linear solver behind conventional LDA's Eq. 11 when
// the within-class scatter is not positive definite (solve_spd_or_lu's
// fallback).  Partial pivoting is the classic mitigation for elimination
// round-off the paper alludes to in its introduction.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace ldafp::linalg {

/// P A = L U factorization of a square matrix with row partial pivoting.
class Lu {
 public:
  /// Factors `a` (must be square).  Throws NumericalError when a zero
  /// pivot column makes the matrix exactly singular.
  explicit Lu(const Matrix& a);

  /// Dimension of the factored matrix.
  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

 private:
  Matrix lu_;                     // L (unit diagonal, below) and U (above)
  std::vector<std::size_t> perm_; // row permutation: solve uses b[perm_[i]]
};

}  // namespace ldafp::linalg
