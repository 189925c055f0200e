#include "fixed/format.h"

#include <cmath>

#include "support/error.h"
#include "support/str.h"

namespace ldafp::fixed {

const char* to_string(RoundingMode mode) {
  switch (mode) {
    case RoundingMode::kNearestEven: return "nearest-even";
    case RoundingMode::kNearestAway: return "nearest-away";
    case RoundingMode::kTowardZero: return "toward-zero";
    case RoundingMode::kFloor: return "floor";
  }
  return "?";
}

FixedFormat::FixedFormat(int integer_bits, int frac_bits)
    : integer_bits_(integer_bits), frac_bits_(frac_bits) {
  LDAFP_CHECK(integer_bits >= 1, "QK.F needs at least the sign bit (K >= 1)");
  LDAFP_CHECK(frac_bits >= 0, "QK.F needs F >= 0");
  LDAFP_CHECK(integer_bits + frac_bits <= 62,
              "QK.F word length limited to 62 bits");
}

FixedFormat FixedFormat::parse(const std::string& text) {
  const std::string t = support::trim(text);
  LDAFP_CHECK(t.size() >= 4 && (t[0] == 'Q' || t[0] == 'q'),
              "fixed format must look like 'Q4.3'");
  const auto dotpos = t.find('.');
  LDAFP_CHECK(dotpos != std::string::npos && dotpos > 1 &&
                  dotpos + 1 < t.size(),
              "fixed format must look like 'Q4.3'");
  int k = 0;
  int f = 0;
  try {
    k = std::stoi(t.substr(1, dotpos - 1));
    f = std::stoi(t.substr(dotpos + 1));
  } catch (const std::exception&) {
    throw ldafp::InvalidArgumentError("cannot parse fixed format '" + text +
                                      "'");
  }
  return FixedFormat(k, f);
}

double FixedFormat::resolution() const { return std::ldexp(1.0, -frac_bits_); }

double FixedFormat::min_value() const {
  return -std::ldexp(1.0, integer_bits_ - 1);
}

double FixedFormat::max_value() const {
  return std::ldexp(1.0, integer_bits_ - 1) - resolution();
}

std::int64_t FixedFormat::level_count() const {
  return std::int64_t{1} << word_length();
}

std::int64_t FixedFormat::raw_min() const {
  return -(std::int64_t{1} << (word_length() - 1));
}

std::int64_t FixedFormat::raw_max() const {
  return (std::int64_t{1} << (word_length() - 1)) - 1;
}

bool FixedFormat::representable(double value) const {
  if (value < min_value() || value > max_value()) return false;
  const double scaled = std::ldexp(value, frac_bits_);
  return scaled == std::nearbyint(scaled) && std::isfinite(scaled);
}

double FixedFormat::to_real(std::int64_t raw) const {
  return std::ldexp(static_cast<double>(raw), -frac_bits_);
}

std::int64_t FixedFormat::quantize_saturate(double value,
                                            RoundingMode mode) const {
  LDAFP_CHECK(!std::isnan(value), "cannot quantize NaN");
  // Saturate before scaling so huge doubles do not overflow the shift.
  if (value <= min_value()) return raw_min();
  if (value >= max_value()) return raw_max();
  const std::int64_t raw =
      round_real_to_int(std::ldexp(value, frac_bits_), mode);
  if (raw < raw_min()) return raw_min();
  if (raw > raw_max()) return raw_max();
  return raw;
}

std::int64_t FixedFormat::quantize_wrap(double value,
                                        RoundingMode mode) const {
  LDAFP_CHECK(!std::isnan(value), "cannot quantize NaN");
  const double scaled = std::ldexp(value, frac_bits_);
  LDAFP_CHECK(std::fabs(scaled) < 9.0e18,
              "value too large to wrap through int64");
  return wrap_raw(round_real_to_int(scaled, mode));
}

double FixedFormat::round_to_grid(double value, RoundingMode mode) const {
  return to_real(quantize_saturate(value, mode));
}

std::string FixedFormat::to_string() const {
  // Appended piecewise: gcc 12 misreports `"Q" + std::string&&` as an
  // overlapping memcpy (-Wrestrict).
  std::string out = "Q";
  out += std::to_string(integer_bits_);
  out += '.';
  out += std::to_string(frac_bits_);
  return out;
}

}  // namespace ldafp::fixed
