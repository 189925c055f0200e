// Assorted matrix utilities built on the factorizations.
#pragma once

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "support/rng.h"

namespace ldafp::linalg {

/// Solves A x = b for symmetric positive-definite A via Cholesky (the
/// in-place kernels below, on a copy), falling back to pivoted LU when A
/// is not PD (e.g. semidefinite scatter from degenerate data).  This is
/// the solve used by conventional LDA (Eq. 11).  Throws
/// InvalidArgumentError when A is not symmetric.
Vector solve_spd_or_lu(const Matrix& a, const Vector& b);

// --- In-place kernels for the barrier solver's zero-allocation Newton
// --- loop (DESIGN.md §10).  All of them write into caller-owned storage;
// --- none touches the heap.

/// Fused symmetric matvec + quadratic form: writes A x into `out`
/// (which must already have x's dimension) and returns xᵀ A x.
double sym_matvec_quad(const Matrix& a, const Vector& x, Vector& out);

/// In-place Cholesky: overwrites the lower triangle of `a` (diagonal
/// included) with the factor L of A = L Lᵀ.  Reads and writes only the
/// lower triangle: the strict upper triangle is never touched, so a
/// caller may assemble A's lower triangle alone (the barrier solver's
/// Newton systems do) and leave anything, even NaN, above the diagonal.
/// Returns false when a pivot is <= 0, i.e. the matrix is not positive
/// definite — no exception, so hot loops can retry with jitter.
bool cholesky_factor_in_place(Matrix& a);

/// Solves L Lᵀ x = b in place (b becomes x) given a factor produced by
/// cholesky_factor_in_place.  Reads only the lower triangle of `l`.
void cholesky_solve_in_place(const Matrix& l, Vector& b);

/// Random matrix with i.i.d. standard normal entries.
Matrix random_gaussian_matrix(std::size_t rows, std::size_t cols,
                              support::Rng& rng);

/// Random orthogonal matrix from the QR factorization of a Gaussian matrix
/// (sign-corrected so the distribution is Haar-like).  random_spd builds
/// the structured covariances of the tests and benches on it.
Matrix random_orthogonal(std::size_t n, support::Rng& rng);

/// Random symmetric positive-definite matrix with eigenvalues drawn
/// uniformly from [lambda_min, lambda_max].
Matrix random_spd(std::size_t n, double lambda_min, double lambda_max,
                  support::Rng& rng);

}  // namespace ldafp::linalg
