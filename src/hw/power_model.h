// Analytic power/energy/area model for the on-chip classifier.
//
// Two's complement: the paper's power claims rest on one rule (Sec. 5.1,
// citing Padgett & Anderson [13]): the power of on-chip fixed-point
// arithmetic is almost a quadratic function of the word length.  A W-bit
// array multiplier has O(W²) full adders, which dominates the MAC; the
// W-bit ripple adder and registers add an O(W) term.  We expose both the
// paper's pure-quadratic rule and a slightly richer quadratic+linear
// model, plus the derived ratios ("3x shorter words -> 9x less power").
//
// LNS: the multiplier collapses to a (W-1)-bit exponent adder, so the
// MAC loses its quadratic term — cost is linear in W (exponent adder,
// Mitchell shift-and-add log adder, registers) plus the comparison/
// normalization logic.  The Mitchell log adder modeled here needs no
// Gaussian-log LUT, so the model has no table term.  Net effect: fixed
// wins at very short words (no per-word overhead), LNS wins as W grows
// and the O(W²) multiplier takes over — bench/lns_sweep plots the
// crossover.
#pragma once

#include <cstdint>

#include "fixed/datapath.h"

namespace ldafp::hw {

/// Coefficients of the per-backend power rules (arbitrary units unless
/// calibrated; only ratios are meaningful, as in the paper):
///   two's complement: P(W) = quad · W² + lin · W
///   LNS:              P(W) = (0.4 + 2.2) · W  (exponent adder + Mitchell
///                     log adder and registers, per bit; fixed)
struct PowerModelOptions {
  double quadratic_coeff = 1.0;  ///< TC multiplier array term
  double linear_coeff = 0.0;     ///< TC adder/register term (0 = paper)
};

/// The model.
class PowerModel {
 public:
  PowerModel() = default;
  explicit PowerModel(PowerModelOptions options);

  /// Power of a W-bit two's-complement MAC datapath (arbitrary units).
  double power(int word_length) const;

  /// Power of a W-bit MAC on the given backend (arbitrary units).
  double power(fixed::DatapathKind kind, int word_length) const;

  /// Power ratio P(baseline) / P(candidate) — "how many times less power
  /// the candidate burns".  The paper's headline: ratio(12, 4) = 9.
  double power_ratio(int baseline_word_length,
                     int candidate_word_length) const;

  /// Cross-backend power ratio at possibly different word lengths.
  double power_ratio(fixed::DatapathKind baseline_kind,
                     int baseline_word_length,
                     fixed::DatapathKind candidate_kind,
                     int candidate_word_length) const;

  /// Energy of one classification: power × cycles (serial MAC: M+1
  /// cycles), in arbitrary units.
  double energy_per_classification(int word_length,
                                   std::int64_t cycles) const;

  /// Energy of one classification on the given backend.
  double energy_per_classification(fixed::DatapathKind kind, int word_length,
                                   std::int64_t cycles) const;

 private:
  PowerModelOptions options_;
};

}  // namespace ldafp::hw
