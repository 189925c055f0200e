// QK.F two's-complement fixed-point format (paper Fig. 3).
//
// A format has K integer bits (sign bit included) and F fractional bits;
// word length W = K + F.  A word with raw integer value r (two's complement
// in W bits) represents the real number r * 2^-F.  The representable range
// is [-2^(K-1), 2^(K-1) - 2^-F] with resolution 2^-F — exactly the set Ω of
// Eq. 13 that LDA-FP constrains the weight vector to.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "fixed/rounding.h"

namespace ldafp::fixed {

/// Value-type descriptor of a QK.F format.
class FixedFormat {
 public:
  /// Creates QK.F.  Requires K >= 1 (sign bit), F >= 0, K + F <= 62
  /// (so products of two words fit int64 before narrowing).
  FixedFormat(int integer_bits, int frac_bits);

  /// Parses "Q4.3" style strings.  Throws InvalidArgumentError on syntax
  /// errors or out-of-range bit counts.
  static FixedFormat parse(const std::string& text);

  /// K: integer bits including the sign bit.
  int integer_bits() const { return integer_bits_; }
  /// F: fractional bits.
  int frac_bits() const { return frac_bits_; }
  /// W = K + F.
  int word_length() const { return integer_bits_ + frac_bits_; }

  /// Grid resolution 2^-F (one unit in the last place).
  double resolution() const;
  /// Smallest representable value, -2^(K-1).
  double min_value() const;
  /// Largest representable value, 2^(K-1) - 2^-F.
  double max_value() const;
  /// Number of representable values, 2^W.
  std::int64_t level_count() const;

  /// Raw-integer range [-2^(W-1), 2^(W-1) - 1].
  std::int64_t raw_min() const;
  std::int64_t raw_max() const;

  /// True when `value` lies exactly on the representable grid.
  bool representable(double value) const;

  /// Real value of raw word r (no range check; callers wrap first).
  double to_real(std::int64_t raw) const;

  /// Nearest raw word for `value` under `mode`, saturated to the raw
  /// range.  NaN throws InvalidArgumentError.
  std::int64_t quantize_saturate(double value, RoundingMode mode) const;

  /// Nearest raw word for `value` under `mode`, wrapped (two's complement
  /// overflow) into the raw range.  NaN throws InvalidArgumentError.
  std::int64_t quantize_wrap(double value, RoundingMode mode) const;

  /// Rounds `value` to the nearest representable real (saturating), the
  /// "round after training" operation of conventional LDA.
  double round_to_grid(double value,
                       RoundingMode mode = RoundingMode::kNearestEven) const;

  /// Wraps an arbitrary int64 into this format's two's-complement raw
  /// range (the hardware adder/register behaviour).  Inline: the scalar
  /// MAC (dot_datapath_raw) calls it on every accumulation step.
  std::int64_t wrap_raw(std::int64_t raw) const {
    // Shift the sign bit to bit 63 and back; the left shift goes through
    // uint64 to avoid signed-overflow UB, and C++20 defines the
    // arithmetic right shift.
    const int shift = 64 - word_length();
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(raw)
                                     << shift) >>
           shift;
  }

  /// "QK.F" display form.
  std::string to_string() const;

  friend bool operator==(const FixedFormat& a, const FixedFormat& b) {
    return a.integer_bits_ == b.integer_bits_ && a.frac_bits_ == b.frac_bits_;
  }
  friend bool operator!=(const FixedFormat& a, const FixedFormat& b) {
    return !(a == b);
  }

 private:
  int integer_bits_;
  int frac_bits_;
};

/// Rounds a real `value` to an integer according to `mode` (unit grid).
/// Inline: packing calls it once per quantized word.
inline std::int64_t round_real_to_int(double value, RoundingMode mode) {
  switch (mode) {
    case RoundingMode::kNearestEven: {
      const double r = std::nearbyint(value);  // assumes FE_TONEAREST
      return static_cast<std::int64_t>(r);
    }
    case RoundingMode::kNearestAway:
      return static_cast<std::int64_t>(std::round(value));
    case RoundingMode::kTowardZero:
      return static_cast<std::int64_t>(std::trunc(value));
    case RoundingMode::kFloor:
      return static_cast<std::int64_t>(std::floor(value));
  }
  return 0;
}

/// Drops `frac_bits` low-order bits from a raw value with rounding —
/// the multiplier's product-narrowing stage (scale 2^-2F -> 2^-F), also
/// used by the wide accumulator's final rounding.  Pure integer
/// arithmetic, no wrapping.  Inline: the scalar MAC and the LNS adder
/// call it on every step.
inline std::int64_t narrow_raw(std::int64_t wide, int frac_bits,
                               RoundingMode mode) {
  if (frac_bits == 0) return wide;
  const std::int64_t unit = std::int64_t{1} << frac_bits;
  // floor division and remainder in [0, unit).
  std::int64_t q = wide >> frac_bits;  // arithmetic shift = floor for 2^k
  const std::int64_t r = wide - (q << frac_bits);
  switch (mode) {
    case RoundingMode::kFloor:
      return q;
    case RoundingMode::kTowardZero:
      // floor for positives; for negatives with a remainder, bump up.
      if (wide < 0 && r != 0) ++q;
      return q;
    case RoundingMode::kNearestAway: {
      const std::int64_t half = unit >> 1;
      if (r > half || (r == half && wide >= 0)) ++q;
      // tie on a negative value rounds away from zero = down = keep floor
      return q;
    }
    case RoundingMode::kNearestEven: {
      const std::int64_t half = unit >> 1;
      if (r > half || (r == half && (q & 1) != 0)) ++q;
      return q;
    }
  }
  return q;
}

}  // namespace ldafp::fixed
