// Exhaustive verification of the fixed-point kernel on small formats:
// every (a, b) raw-word pair is pushed through the datapath's primitives
// (FixedFormat::wrap_raw, narrow_raw, the one-term narrow MAC of
// dot_datapath_raw and the saturating quantizer) and checked against an
// independent reference model built on plain integer arithmetic.
// Small-format exhaustiveness plus the random sweeps elsewhere give high
// confidence in the wrapping/rounding semantics the whole reproduction
// rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "fixed/dot.h"
#include "fixed/format.h"

namespace ldafp::fixed {
namespace {

/// Reference wrap of an integer into W-bit two's complement, written
/// independently of FixedFormat::wrap_raw (arithmetic, not bit masking).
std::int64_t ref_wrap(std::int64_t v, int w_bits) {
  const std::int64_t span = std::int64_t{1} << w_bits;
  std::int64_t r = v % span;
  if (r < -(span / 2)) r += span;
  if (r >= span / 2) r -= span;
  return r;
}

/// Reference rounding of num/2^f under `mode`, using only integer
/// division (truncating, unlike narrow_raw's arithmetic shift).
std::int64_t ref_round(std::int64_t num, int f, RoundingMode mode) {
  if (f == 0) return num;
  const std::int64_t unit = std::int64_t{1} << f;
  if (mode == RoundingMode::kTowardZero) return num / unit;
  std::int64_t q = num / unit;
  std::int64_t r = num % unit;
  if (r < 0) {  // make the remainder non-negative (floor division)
    r += unit;
    q -= 1;
  }
  if (mode == RoundingMode::kFloor) return q;
  // Ties: away from zero (up for num >= 0), or to the even neighbour.
  const bool tie_up =
      mode == RoundingMode::kNearestAway ? num >= 0 : q % 2 != 0;
  const std::int64_t half = unit / 2;
  if (r > half || (r == half && tie_up)) ++q;
  return q;
}

class ExhaustiveFixedTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ExhaustiveFixedTest, AddWrapMatchesReference) {
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  for (std::int64_t a = fmt.raw_min(); a <= fmt.raw_max(); ++a) {
    for (std::int64_t b = fmt.raw_min(); b <= fmt.raw_max(); ++b) {
      EXPECT_EQ(fmt.wrap_raw(a + b), ref_wrap(a + b, fmt.word_length()))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST_P(ExhaustiveFixedTest, SubAndNegateMatchReference) {
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  for (std::int64_t a = fmt.raw_min(); a <= fmt.raw_max(); ++a) {
    EXPECT_EQ(fmt.wrap_raw(-a), ref_wrap(-a, fmt.word_length()));
    for (std::int64_t b = fmt.raw_min(); b <= fmt.raw_max(); ++b) {
      EXPECT_EQ(fmt.wrap_raw(a - b), ref_wrap(a - b, fmt.word_length()));
    }
  }
}

TEST_P(ExhaustiveFixedTest, MulWrapMatchesReference) {
  // The datapath multiplier is the one-term narrow MAC: narrow the exact
  // product to QK.F with rounding, then wrap.
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  for (std::int64_t a = fmt.raw_min(); a <= fmt.raw_max(); ++a) {
    for (std::int64_t b = fmt.raw_min(); b <= fmt.raw_max(); ++b) {
      const std::int64_t expected =
          ref_wrap(ref_round(a * b, f, RoundingMode::kNearestEven),
                   fmt.word_length());
      EXPECT_EQ(dot_datapath_raw(&a, &b, 1, fmt, RoundingMode::kNearestEven,
                                 AccumulatorMode::kNarrow),
                expected)
          << "a=" << a << " b=" << b << " fmt=" << fmt.to_string();
    }
  }
}

TEST_P(ExhaustiveFixedTest, NarrowRawMatchesReferenceInEveryMode) {
  // Every value a product of two words can take, in all four modes.
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  const std::int64_t lo = fmt.raw_min() * fmt.raw_max();
  const std::int64_t hi = fmt.raw_min() * fmt.raw_min();
  for (const auto mode :
       {RoundingMode::kNearestEven, RoundingMode::kNearestAway,
        RoundingMode::kTowardZero, RoundingMode::kFloor}) {
    for (std::int64_t wide = lo; wide <= hi; ++wide) {
      EXPECT_EQ(narrow_raw(wide, f, mode), ref_round(wide, f, mode))
          << "wide=" << wide << " f=" << f
          << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST_P(ExhaustiveFixedTest, SaturateClampsExactly) {
  // The saturating quantizer clamps every out-of-range pair sum to the
  // format limits and leaves every in-range one exact.
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  for (std::int64_t a = fmt.raw_min(); a <= fmt.raw_max(); ++a) {
    for (std::int64_t b = fmt.raw_min(); b <= fmt.raw_max(); ++b) {
      std::int64_t expected = a + b;
      expected = std::max(expected, fmt.raw_min());
      expected = std::min(expected, fmt.raw_max());
      const double sum = fmt.to_real(a) + fmt.to_real(b);  // exact
      EXPECT_EQ(fmt.quantize_saturate(sum, RoundingMode::kNearestEven),
                expected);
    }
  }
}

TEST_P(ExhaustiveFixedTest, RoundTripEveryWord) {
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  for (std::int64_t a = fmt.raw_min(); a <= fmt.raw_max(); ++a) {
    const double real = fmt.to_real(a);
    EXPECT_TRUE(fmt.representable(real));
    EXPECT_EQ(fmt.quantize_saturate(real, RoundingMode::kNearestEven), a);
    EXPECT_EQ(fmt.quantize_wrap(real, RoundingMode::kNearestEven), a);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallFormats, ExhaustiveFixedTest,
    ::testing::Values(std::pair{1, 0}, std::pair{1, 2}, std::pair{2, 1},
                      std::pair{3, 0}, std::pair{2, 3}, std::pair{3, 3},
                      std::pair{1, 5}, std::pair{4, 2}));

}  // namespace
}  // namespace ldafp::fixed
