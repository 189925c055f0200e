// Quantization-grid utilities over a QK.F format.
//
// LDA-FP's feasible set Ω (Eq. 13) is this grid; the branch-and-bound
// solver enumerates and snaps against it through these helpers.
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/format.h"
#include "linalg/vector.h"

namespace ldafp::fixed {

/// Rounds every element of `v` onto the format grid (saturating), the
/// conventional-LDA "train in float, round the weights" step.
linalg::Vector snap_to_grid(const linalg::Vector& v, const FixedFormat& fmt,
                            RoundingMode mode = RoundingMode::kNearestEven);

/// True when every element of `v` is exactly representable in `fmt`.
bool on_grid(const linalg::Vector& v, const FixedFormat& fmt);

/// The largest grid value <= x, clamped to the format range.
double grid_floor(double x, const FixedFormat& fmt);

/// The smallest grid value >= x, clamped to the format range.
double grid_ceil(double x, const FixedFormat& fmt);

/// Number of grid points in the closed interval [lo, hi] (0 when the
/// interval contains none).
std::int64_t grid_count(double lo, double hi, const FixedFormat& fmt);

/// All grid points in [lo, hi], ascending.  Throws InvalidArgumentError
/// when the count exceeds `max_points` (guards accidental enumeration of
/// huge ranges).
std::vector<double> grid_points(double lo, double hi, const FixedFormat& fmt,
                                std::int64_t max_points = 1 << 20);

}  // namespace ldafp::fixed
