// Fixed-point value type with the wrapping two's-complement semantics the
// paper assumes for the on-chip datapath.
//
// Addition/subtraction wrap modulo 2^W — this is what makes the paper's
// observation work that intermediate sums may overflow without corrupting a
// final result that fits (the Q3.0 example "3 + 3 - 4 = 2" in Sec. 3).
// Multiplication computes the exact double-width product and narrows it back
// to the working format with a configurable rounding mode, then wraps.
#pragma once

#include <cstdint>

#include "fixed/format.h"

namespace ldafp::fixed {

/// One QK.F word.  Carries its format; mixed-format arithmetic is a
/// precondition violation (the paper's datapath uses one shared format).
class Fixed {
 public:
  /// Zero in the given format.
  explicit Fixed(FixedFormat format);

  /// Word from a raw two's-complement integer (wrapped into range).
  static Fixed from_raw(FixedFormat format, std::int64_t raw);

  /// Word from a real value, rounded then saturated.
  static Fixed from_real_saturate(
      FixedFormat format, double value,
      RoundingMode mode = RoundingMode::kNearestEven);

  /// Word from a real value, rounded then wrapped (hardware register
  /// load without saturation logic).
  static Fixed from_real_wrap(FixedFormat format, double value,
                              RoundingMode mode = RoundingMode::kNearestEven);

  /// The format this word is encoded in.
  const FixedFormat& format() const { return format_; }

  /// Raw two's-complement integer in [raw_min, raw_max].
  std::int64_t raw() const { return raw_; }

  /// Real value raw * 2^-F.
  double to_real() const { return format_.to_real(raw_); }

  /// Wrapping add: (a + b) mod 2^W.  Formats must match.
  Fixed add_wrap(const Fixed& rhs) const;

  /// Wrapping subtract.  Formats must match.
  Fixed sub_wrap(const Fixed& rhs) const;

  /// Wrapping negate (note: -raw_min wraps back to raw_min, as in
  /// hardware).
  Fixed negate_wrap() const;

  /// Saturating add (clamps at the format limits).  Formats must match.
  Fixed add_saturate(const Fixed& rhs) const;

  /// Multiply: exact double-width product, narrowed to this format with
  /// `mode`, then wrapped.  Formats must match.
  Fixed mul_wrap(const Fixed& rhs,
                 RoundingMode mode = RoundingMode::kNearestEven) const;

  /// Multiply with saturation instead of wrapping on overflow.
  Fixed mul_saturate(const Fixed& rhs,
                     RoundingMode mode = RoundingMode::kNearestEven) const;

  /// True when adding rhs would leave the representable range before
  /// wrapping (i.e. the wrap actually fires).
  bool add_overflows(const Fixed& rhs) const;

  /// Drops `frac_bits` low-order bits from a raw value with rounding —
  /// the multiplier's product-narrowing stage (scale 2^-2F -> 2^-F), also
  /// used by the wide accumulator's final rounding.  Pure integer
  /// arithmetic, no wrapping.  Inline: the scalar MAC and the LNS adder
  /// call it on every step.
  static std::int64_t narrow_raw(std::int64_t wide, int frac_bits,
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
        // tie on a negative value rounds away from zero = down = keep
        // floor
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

  friend bool operator==(const Fixed& a, const Fixed& b) {
    return a.format_ == b.format_ && a.raw_ == b.raw_;
  }
  friend bool operator!=(const Fixed& a, const Fixed& b) { return !(a == b); }

 private:
  Fixed(FixedFormat format, std::int64_t raw) : format_(format), raw_(raw) {}

  FixedFormat format_;
  std::int64_t raw_;
};

}  // namespace ldafp::fixed
