// Grid coordinate-descent polish for incumbent solutions.
//
// One of the trainer's documented "additional heuristics" (the paper's
// Algorithm 1 mentions such heuristics without detailing them): starting
// from a feasible grid point, greedily move single coordinates by a few
// grid steps while the exact Fisher cost improves and all LDA-FP
// constraints stay satisfied.  This typically closes most of the gap
// between the rounded relaxation solution and the true discrete optimum,
// letting branch-and-bound prune far earlier.
//
// Each candidate move is first screened in O(1) against the incumbent
// cost from a cached S_W·w, wᵀS_W w and dᵀw (DESIGN.md §10); only moves
// the rounding-error-bounded screen cannot rule out are costed exactly,
// so the result is the same as costing every move exactly.
#pragma once

#include <cstdint>
#include <optional>

#include "core/constraints.h"
#include "fixed/format.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/gaussian_model.h"

namespace ldafp::core {

/// Full passes over all coordinates before the polish gives up.
inline constexpr int kPolishMaxSweeps = 50;
/// Slack on the polish's constraint checks.
inline constexpr double kPolishFeasTol = 1e-9;

/// Options for the polish loop.
struct LocalSearchOptions {
  int max_step_pow = 3;         ///< tries steps of ±1, ±2, ... ±2^(p-1) ulp
};

/// Result of a polish: the improved point and its exact cost.
struct LocalSearchResult {
  linalg::Vector weights;
  double cost = 0.0;
  int sweeps = 0;
  int moves = 0;
  /// Candidate moves costed exactly (the ones the screen let through).
  std::uint64_t exact_evals = 0;
};

/// Exact LDA-FP cost wᵀ S_W w / ((μ_A-μ_B)ᵀ w)² with +inf at t = 0.
double exact_cost(const linalg::Vector& w, const linalg::Matrix& sw,
                  const linalg::Vector& mean_diff);

/// Polishes `start` (must already be feasible and on the grid — checked).
/// Returns nullopt when `start` itself is infeasible or off-grid.
std::optional<LocalSearchResult> polish(
    const linalg::Vector& start, const linalg::Matrix& sw,
    const stats::TwoClassModel& model, double beta,
    const fixed::FixedFormat& fmt,
    const LocalSearchOptions& options = LocalSearchOptions{});

}  // namespace ldafp::core
