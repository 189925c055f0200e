#include "fixed/lns.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/error.h"

namespace ldafp::fixed {

LnsFormat::LnsFormat(int exp_integer_bits, int exp_frac_bits)
    : exp_integer_bits_(exp_integer_bits), exp_frac_bits_(exp_frac_bits) {
  if (exp_integer_bits < 2) {
    throw InvalidArgumentError("LnsFormat: exponent integer bits must be >= 2");
  }
  if (exp_frac_bits < 0) {
    throw InvalidArgumentError("LnsFormat: exponent frac bits must be >= 0");
  }
  if (1 + exp_integer_bits + exp_frac_bits > 62) {
    throw InvalidArgumentError("LnsFormat: word length must be <= 62");
  }
}

LnsFormat LnsFormat::matched(const FixedFormat& fmt) {
  const int w = fmt.word_length();
  if (w < 4) {
    throw InvalidArgumentError(
        "LnsFormat::matched requires word length >= 4, got " +
        fmt.to_string());
  }
  const int exp_bits = w - 1;
  // Integer exponent range must reach the QK.F maximum 2^(K-1) above and
  // the squared resolution 2^-2F below: 2^(Ke-1) >= max(K, 2F).
  const int need = std::max({fmt.integer_bits(), 2 * fmt.frac_bits(), 2});
  int ke = 2;
  while ((std::int64_t{1} << (ke - 1)) < need) ++ke;
  if (ke > exp_bits) ke = exp_bits;  // short word: keep range, lose grid
  return LnsFormat(ke, exp_bits - ke);
}

std::int64_t LnsFormat::exp_raw_min() const {
  return -(std::int64_t{1} << (exp_bits() - 1));
}

std::int64_t LnsFormat::exp_raw_max() const {
  return (std::int64_t{1} << (exp_bits() - 1)) - 1;
}

double LnsFormat::min_magnitude() const {
  return std::exp2(static_cast<double>(exp_raw_min_normal()) /
                   static_cast<double>(std::int64_t{1} << exp_frac_bits_));
}

double LnsFormat::max_magnitude() const {
  return std::exp2(static_cast<double>(exp_raw_max()) /
                   static_cast<double>(std::int64_t{1} << exp_frac_bits_));
}

std::string LnsFormat::to_string() const {
  std::ostringstream os;
  os << 'L' << word_length() << 'e' << exp_integer_bits_ << '.'
     << exp_frac_bits_;
  return os.str();
}

namespace {

std::uint64_t exp_field_mask(const LnsFormat& fmt) {
  return (std::uint64_t{1} << fmt.exp_bits()) - 1;
}

/// Sign-extends the low `bits` bits of `word` into a full int64.
std::int64_t sign_extend(std::uint64_t word, int bits) {
  const std::uint64_t m = std::uint64_t{1} << (bits - 1);
  word &= (std::uint64_t{1} << bits) - 1;
  return static_cast<std::int64_t>((word ^ m) - m);
}

/// Clamps an unbounded exponent to the nonzero storage range,
/// flushing underflow to exact zero and saturating overflow at the
/// largest magnitude.  `saturated` is set (not cleared) on overflow.
LnsValue saturate_exp(const LnsFormat& fmt, bool negative, std::int64_t e,
                      bool* saturated) {
  if (e < fmt.exp_raw_min_normal()) return LnsValue{};  // flush to zero
  if (e > fmt.exp_raw_max()) {
    if (saturated != nullptr) *saturated = true;
    return LnsValue{false, negative, fmt.exp_raw_max()};
  }
  return LnsValue{false, negative, e};
}

}  // namespace

std::int64_t lns_zero_word(const LnsFormat& fmt) {
  return lns_pack(fmt, LnsValue{});
}

std::int64_t lns_pack(const LnsFormat& fmt, const LnsValue& value) {
  std::uint64_t word;
  if (value.zero) {
    word = static_cast<std::uint64_t>(fmt.exp_raw_min()) & exp_field_mask(fmt);
  } else {
    LDAFP_CHECK(value.exp_raw >= fmt.exp_raw_min_normal() &&
                    value.exp_raw <= fmt.exp_raw_max(),
                "lns_pack: exponent out of range");
    word = static_cast<std::uint64_t>(value.exp_raw) & exp_field_mask(fmt);
    if (value.negative) word |= std::uint64_t{1} << fmt.exp_bits();
  }
  return sign_extend(word, fmt.word_length());
}

LnsValue lns_unpack(const LnsFormat& fmt, std::int64_t raw) {
  const std::uint64_t word = static_cast<std::uint64_t>(raw) &
                             ((std::uint64_t{1} << fmt.word_length()) - 1);
  const std::int64_t exp = sign_extend(word, fmt.exp_bits());
  if (exp == fmt.exp_raw_min()) return LnsValue{};
  LnsValue out;
  out.zero = false;
  out.negative = (word >> fmt.exp_bits()) & 1;
  out.exp_raw = exp;
  return out;
}

std::int64_t lns_quantize(const LnsFormat& fmt, double value,
                          RoundingMode mode) {
  if (std::isnan(value)) {
    throw InvalidArgumentError("lns_quantize: NaN is not representable");
  }
  const bool negative = std::signbit(value);
  const double mag = std::fabs(value);
  if (mag == 0.0) return lns_zero_word(fmt);
  LnsValue out;
  out.zero = false;
  out.negative = negative;
  if (std::isinf(value)) {
    out.exp_raw = fmt.exp_raw_max();
    return lns_pack(fmt, out);
  }
  // Round on the exponent's fixed-point grid (log-domain rounding).
  const double scaled =
      std::log2(mag) * static_cast<double>(std::int64_t{1} << fmt.exp_frac_bits());
  if (scaled >= static_cast<double>(fmt.exp_raw_max())) {
    out.exp_raw = fmt.exp_raw_max();
    return lns_pack(fmt, out);
  }
  if (scaled <= static_cast<double>(fmt.exp_raw_min_normal()) - 1.0) {
    return lns_zero_word(fmt);  // flush to zero
  }
  std::int64_t e = round_real_to_int(scaled, mode);
  if (e < fmt.exp_raw_min_normal()) return lns_zero_word(fmt);
  if (e > fmt.exp_raw_max()) e = fmt.exp_raw_max();
  out.exp_raw = e;
  return lns_pack(fmt, out);
}

double lns_to_real(const LnsFormat& fmt, std::int64_t raw) {
  const LnsValue v = lns_unpack(fmt, raw);
  if (v.zero) return 0.0;
  const double mag =
      std::exp2(static_cast<double>(v.exp_raw) /
                static_cast<double>(std::int64_t{1} << fmt.exp_frac_bits()));
  return v.negative ? -mag : mag;
}

bool lns_ge(const LnsFormat& fmt, std::int64_t a, std::int64_t b) {
  const LnsValue va = lns_unpack(fmt, a);
  const LnsValue vb = lns_unpack(fmt, b);
  // Rank by sign class first: negative < zero < positive.
  const int ra = va.zero ? 0 : (va.negative ? -1 : 1);
  const int rb = vb.zero ? 0 : (vb.negative ? -1 : 1);
  if (ra != rb) return ra > rb;
  if (ra == 0) return true;  // both zero
  // Same nonzero sign: exponent order, inverted for two negatives.
  return ra > 0 ? va.exp_raw >= vb.exp_raw : va.exp_raw <= vb.exp_raw;
}

LnsValue lns_add(const LnsFormat& fmt, const LnsValue& a, const LnsValue& b) {
  if (a.zero) return b;
  if (b.zero) return a;
  // Order so hi has the larger magnitude (larger exponent).
  const LnsValue& hi = a.exp_raw >= b.exp_raw ? a : b;
  const LnsValue& lo = a.exp_raw >= b.exp_raw ? b : a;
  const std::int64_t fe = fmt.exp_frac_bits();
  const std::int64_t one = std::int64_t{1} << fe;  // 1.0 in exponent units
  const std::int64_t d = hi.exp_raw - lo.exp_raw;  // >= 0, raw units
  const std::int64_t d_int = d >> fe;
  const std::int64_t d_frac = d & (one - 1);
  // Mitchell antilog of the aligned addend: r = 2^-(d_int + f)
  // = 2^(1-f) / 2^(d_int+1) ≈ (2 - f) / 2^(d_int+1), f = d_frac·2^-Fe.
  // r_raw holds r in Fe-fraction units, rounded to nearest-even at the
  // shift; r_raw ∈ [0, 2^Fe], hitting 2^Fe exactly when d = 0.
  const std::int64_t r_raw =
      d_int + 1 >= 62
          ? 0
          : narrow_raw(2 * one - d_frac, static_cast<int>(d_int) + 1,
                       RoundingMode::kNearestEven);
  if (hi.negative == lo.negative) {
    // Mitchell log: log2(1 + r) ≈ r.
    return LnsValue{false, hi.negative, hi.exp_raw + r_raw};
  }
  // Opposite signs: y = 1 - r, renormalized to m · 2^-k with m ∈ [1, 2);
  // log2(y) ≈ -k + (m - 1).
  const std::int64_t y_raw = one - r_raw;
  if (y_raw == 0) return LnsValue{};  // equal magnitudes cancel exactly
  const int k =
      fe + 1 - std::bit_width(static_cast<std::uint64_t>(y_raw));
  const std::int64_t m_raw = y_raw << k;
  return LnsValue{false, hi.negative,
                  hi.exp_raw - std::int64_t{k} * one + (m_raw - one)};
}

std::int64_t lns_dot_raw(const LnsFormat& fmt, const std::int64_t* w,
                         const std::int64_t* x, std::size_t n,
                         AccumulatorMode acc, DotDiagnostics* diag) {
  if (diag != nullptr) *diag = DotDiagnostics{};
  LnsValue sum;  // exact zero
  for (std::size_t m = 0; m < n; ++m) {
    const LnsValue wm = lns_unpack(fmt, w[m]);
    const LnsValue xm = lns_unpack(fmt, x[m]);
    if (wm.zero || xm.zero) continue;  // product is exact zero
    LnsValue prod;
    prod.zero = false;
    prod.negative = wm.negative != xm.negative;
    prod.exp_raw = wm.exp_raw + xm.exp_raw;  // multiply = exponent add
    if (acc == AccumulatorMode::kNarrow) {
      // Narrow datapath: the product register is a storage-width word,
      // so the exponent adder saturates here.
      bool clipped = false;
      prod = saturate_exp(fmt, prod.negative, prod.exp_raw, &clipped);
      if (clipped && diag != nullptr) ++diag->product_overflows;
      if (prod.zero) continue;
    }
    sum = lns_add(fmt, sum, prod);
    if (acc == AccumulatorMode::kNarrow && !sum.zero) {
      bool clipped = false;
      sum = saturate_exp(fmt, sum.negative, sum.exp_raw, &clipped);
      if (clipped && diag != nullptr) ++diag->accumulator_wraps;
    }
  }
  if (sum.zero) return lns_zero_word(fmt);
  bool clipped = false;
  const LnsValue out = saturate_exp(fmt, sum.negative, sum.exp_raw, &clipped);
  if (clipped && diag != nullptr) diag->final_overflow = true;
  return lns_pack(fmt, out);
}

}  // namespace ldafp::fixed
