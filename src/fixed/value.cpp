#include "fixed/value.h"

#include <cmath>

#include "support/error.h"

namespace ldafp::fixed {

Fixed::Fixed(FixedFormat format) : format_(format), raw_(0) {}

Fixed Fixed::from_raw(FixedFormat format, std::int64_t raw) {
  return Fixed(format, format.wrap_raw(raw));
}

Fixed Fixed::from_real_saturate(FixedFormat format, double value,
                                RoundingMode mode) {
  return Fixed(format, format.quantize_saturate(value, mode));
}

Fixed Fixed::from_real_wrap(FixedFormat format, double value,
                            RoundingMode mode) {
  return Fixed(format, format.quantize_wrap(value, mode));
}

Fixed Fixed::add_wrap(const Fixed& rhs) const {
  LDAFP_CHECK(format_ == rhs.format_, "fixed add: format mismatch");
  // Raw sums of two <=62-bit words fit in int64, so compute exactly and
  // wrap.
  return Fixed(format_, format_.wrap_raw(raw_ + rhs.raw_));
}

Fixed Fixed::sub_wrap(const Fixed& rhs) const {
  LDAFP_CHECK(format_ == rhs.format_, "fixed sub: format mismatch");
  return Fixed(format_, format_.wrap_raw(raw_ - rhs.raw_));
}

Fixed Fixed::negate_wrap() const {
  return Fixed(format_, format_.wrap_raw(-raw_));
}

Fixed Fixed::add_saturate(const Fixed& rhs) const {
  LDAFP_CHECK(format_ == rhs.format_, "fixed add: format mismatch");
  std::int64_t sum = raw_ + rhs.raw_;
  if (sum < format_.raw_min()) sum = format_.raw_min();
  if (sum > format_.raw_max()) sum = format_.raw_max();
  return Fixed(format_, sum);
}

Fixed Fixed::mul_wrap(const Fixed& rhs, RoundingMode mode) const {
  LDAFP_CHECK(format_ == rhs.format_, "fixed mul: format mismatch");
  // |raw| < 2^61, so the product can exceed int64 for wide formats; guard
  // by checking word length (<= 31 bits each side is always exact).
  LDAFP_CHECK(format_.word_length() <= 31,
              "fixed mul limited to word lengths <= 31 bits");
  const std::int64_t wide = raw_ * rhs.raw_;  // scale 2^-2F, exact
  const std::int64_t narrowed =
      narrow_raw(wide, format_.frac_bits(), mode);
  return Fixed(format_, format_.wrap_raw(narrowed));
}

Fixed Fixed::mul_saturate(const Fixed& rhs, RoundingMode mode) const {
  LDAFP_CHECK(format_ == rhs.format_, "fixed mul: format mismatch");
  LDAFP_CHECK(format_.word_length() <= 31,
              "fixed mul limited to word lengths <= 31 bits");
  const std::int64_t wide = raw_ * rhs.raw_;
  std::int64_t narrowed = narrow_raw(wide, format_.frac_bits(), mode);
  if (narrowed < format_.raw_min()) narrowed = format_.raw_min();
  if (narrowed > format_.raw_max()) narrowed = format_.raw_max();
  return Fixed(format_, narrowed);
}

bool Fixed::add_overflows(const Fixed& rhs) const {
  LDAFP_CHECK(format_ == rhs.format_, "fixed add: format mismatch");
  const std::int64_t sum = raw_ + rhs.raw_;
  return sum < format_.raw_min() || sum > format_.raw_max();
}

}  // namespace ldafp::fixed
