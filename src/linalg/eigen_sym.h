// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Needed for: λ_min(S_W) in the LDA-FP trainer's degenerate-t bound and
// the matrix square root used by the Gaussian sampler.  Jacobi is slow
// for very large matrices but unbeatable for the small (M <= a few
// hundred) symmetric problems here, and its accuracy on tiny eigenvalues
// is excellent.
#pragma once

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace ldafp::linalg {

/// Result of a symmetric eigendecomposition A = V diag(λ) Vᵀ.
struct SymmetricEigen {
  Vector eigenvalues;   ///< ascending order
  Matrix eigenvectors;  ///< columns match eigenvalues
};

/// Decomposes a symmetric matrix.  Throws InvalidArgumentError when `a` is
/// not square/symmetric; throws NumericalError when Jacobi fails to
/// converge within the internal sweep limit (practically unreachable).
SymmetricEigen eigen_symmetric(const Matrix& a);

/// Symmetric square root A^{1/2} of a PSD matrix (eigenvalues below
/// -tol throw NumericalError; small negatives are clipped to 0).
Matrix sqrt_psd(const Matrix& a, double tol = 1e-9);

}  // namespace ldafp::linalg
