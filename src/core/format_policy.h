// Word-length split policy: choosing QK.F and a feature pre-scale.
//
// The paper's experiments sweep the total word length W = K + F but do
// not publish the K/F split or the feature scaling.  This module fixes
// our documented policy (DESIGN.md §5):
//  * the caller picks K (default 2: one sign bit plus one magnitude bit
//    of integer headroom for products and the projection),
//  * features are pre-scaled by one global power of two chosen so every
//    feature's β-confidence interval AND observed sample range fit the
//    representable range — the "careful scaling" step the paper assigns
//    to preprocessing (Sec. 3).
// A power of two is free in hardware (bit shift) and keeps the scale
// exactly representable, so it cannot add rounding error of its own.
#pragma once

#include "core/training_set.h"
#include "fixed/format.h"

namespace ldafp::core {

/// A chosen format plus the feature pre-scale to apply before
/// quantization.
struct FormatChoice {
  fixed::FixedFormat format;
  double feature_scale = 1.0;  ///< multiply features by this (power of 2)
};

/// Picks QK.F with the given total word length and integer bits, and the
/// largest power-of-two feature scale under which all features fit (by
/// the β-confidence model *and* the observed min/max).
/// Requires 1 <= integer_bits <= word_length.
FormatChoice choose_format(const TrainingSet& data, int word_length,
                           double beta, int integer_bits = 2);

}  // namespace ldafp::core
