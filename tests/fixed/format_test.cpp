#include "fixed/format.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fixed/dot.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::fixed {
namespace {

TEST(FormatTest, BasicProperties) {
  const FixedFormat q42(4, 3);  // Q4.3
  EXPECT_EQ(q42.integer_bits(), 4);
  EXPECT_EQ(q42.frac_bits(), 3);
  EXPECT_EQ(q42.word_length(), 7);
  EXPECT_DOUBLE_EQ(q42.resolution(), 0.125);
  EXPECT_DOUBLE_EQ(q42.min_value(), -8.0);
  EXPECT_DOUBLE_EQ(q42.max_value(), 8.0 - 0.125);
  EXPECT_EQ(q42.level_count(), 128);
  EXPECT_EQ(q42.raw_min(), -64);
  EXPECT_EQ(q42.raw_max(), 63);
  EXPECT_EQ(q42.to_string(), "Q4.3");
}

TEST(FormatTest, PaperQ30Example) {
  const FixedFormat q30(3, 0);
  EXPECT_DOUBLE_EQ(q30.min_value(), -4.0);
  EXPECT_DOUBLE_EQ(q30.max_value(), 3.0);
  EXPECT_DOUBLE_EQ(q30.resolution(), 1.0);
}

TEST(FormatTest, ConstructionGuards) {
  EXPECT_THROW(FixedFormat(0, 3), ldafp::InvalidArgumentError);
  EXPECT_THROW(FixedFormat(2, -1), ldafp::InvalidArgumentError);
  EXPECT_THROW(FixedFormat(32, 31), ldafp::InvalidArgumentError);
  EXPECT_NO_THROW(FixedFormat(1, 0));
}

TEST(FormatTest, ParseValidAndInvalid) {
  const FixedFormat fmt = FixedFormat::parse(" q2.6 ");
  EXPECT_EQ(fmt, FixedFormat(2, 6));
  EXPECT_THROW(FixedFormat::parse("2.6"), ldafp::InvalidArgumentError);
  EXPECT_THROW(FixedFormat::parse("Q26"), ldafp::InvalidArgumentError);
  EXPECT_THROW(FixedFormat::parse("Qx.y"), ldafp::InvalidArgumentError);
}

TEST(FormatTest, Representable) {
  const FixedFormat fmt(2, 2);  // step 0.25, range [-2, 1.75]
  EXPECT_TRUE(fmt.representable(0.25));
  EXPECT_TRUE(fmt.representable(-2.0));
  EXPECT_TRUE(fmt.representable(1.75));
  EXPECT_FALSE(fmt.representable(2.0));
  EXPECT_FALSE(fmt.representable(0.1));
  EXPECT_FALSE(fmt.representable(-2.25));
}

TEST(FormatTest, QuantizeSaturateClamps) {
  const FixedFormat fmt(2, 2);
  EXPECT_EQ(fmt.quantize_saturate(100.0, RoundingMode::kNearestEven),
            fmt.raw_max());
  EXPECT_EQ(fmt.quantize_saturate(-100.0, RoundingMode::kNearestEven),
            fmt.raw_min());
  EXPECT_EQ(fmt.quantize_saturate(0.26, RoundingMode::kNearestEven), 1);
  EXPECT_THROW(fmt.quantize_saturate(std::nan(""),
                                     RoundingMode::kNearestEven),
               ldafp::InvalidArgumentError);
}

TEST(FormatTest, QuantizeWrapWrapsAroundRange) {
  const FixedFormat fmt(2, 0);  // range [-2, 1], 4 levels
  // 2.0 wraps to -2.0 (raw 2 -> -2 in 2-bit two's complement).
  EXPECT_EQ(fmt.quantize_wrap(2.0, RoundingMode::kNearestEven), -2);
  EXPECT_EQ(fmt.quantize_wrap(1.0, RoundingMode::kNearestEven), 1);
}

TEST(FormatTest, WrapRawTwosComplement) {
  const FixedFormat fmt(3, 0);  // 3-bit raw range [-4, 3]
  EXPECT_EQ(fmt.wrap_raw(3), 3);
  EXPECT_EQ(fmt.wrap_raw(4), -4);
  EXPECT_EQ(fmt.wrap_raw(-5), 3);
  EXPECT_EQ(fmt.wrap_raw(8), 0);
  EXPECT_EQ(fmt.wrap_raw(-4), -4);
}

TEST(FormatTest, RoundToGridIsIdempotent) {
  const FixedFormat fmt(2, 3);
  const double g = fmt.round_to_grid(0.3);
  EXPECT_TRUE(fmt.representable(g));
  EXPECT_DOUBLE_EQ(fmt.round_to_grid(g), g);
}

// Arithmetic on fixed-point values held as raw words, the datapath's one
// representation: add, subtract and negate are wrap_raw of the exact
// integer result; multiply is the one-term narrow MAC (narrow_raw of the
// exact product, then wrap_raw).

/// Datapath product of two raw words: a one-term narrow dot.
std::int64_t mul_wrap(const FixedFormat& fmt, std::int64_t a, std::int64_t b,
                      RoundingMode mode = RoundingMode::kNearestEven) {
  return dot_datapath_raw(&a, &b, 1, fmt, mode, AccumulatorMode::kNarrow);
}

TEST(FixedValueTest, PaperWrappingExample) {
  // Paper Sec. 3: y = 3 + 3 - 4 in Q3.0.  The intermediate sum 3 + 3
  // overflows (wraps to -2), yet the final result is the correct 2.
  const FixedFormat q30(3, 0);
  const auto even = RoundingMode::kNearestEven;
  const std::int64_t three = q30.quantize_saturate(3.0, even);
  const std::int64_t minus4 = q30.quantize_saturate(-4.0, even);
  const std::int64_t intermediate = q30.wrap_raw(three + three);
  EXPECT_DOUBLE_EQ(q30.to_real(intermediate), -2.0);  // wrapped
  EXPECT_GT(three + three, q30.raw_max());  // the wrap actually fired
  const std::int64_t final_sum = q30.wrap_raw(intermediate + minus4);
  EXPECT_DOUBLE_EQ(q30.to_real(final_sum), 2.0);  // correct despite the wrap
}

TEST(FixedValueTest, FromRealModes) {
  const FixedFormat fmt(2, 2);
  const auto even = RoundingMode::kNearestEven;
  EXPECT_DOUBLE_EQ(fmt.to_real(fmt.quantize_saturate(5.0, even)), 1.75);
  // 5.0 -> raw 20 -> wraps into 4-bit range.
  EXPECT_DOUBLE_EQ(fmt.to_real(fmt.quantize_wrap(5.0, even)), 1.0);
}

TEST(FixedValueTest, AddSubNegateWrap) {
  const FixedFormat fmt(2, 1);  // range [-2, 1.5]
  const std::int64_t a = 3;     // 1.5
  const std::int64_t b = 2;     // 1.0
  EXPECT_DOUBLE_EQ(fmt.to_real(fmt.wrap_raw(a + b)), -1.5);  // 2.5 wraps
  EXPECT_DOUBLE_EQ(fmt.to_real(fmt.wrap_raw(a - b)), 0.5);
  EXPECT_DOUBLE_EQ(fmt.to_real(fmt.wrap_raw(-b)), -1.0);
  // Negating the most negative value wraps back onto itself.
  EXPECT_EQ(fmt.wrap_raw(-fmt.raw_min()), fmt.raw_min());
}

TEST(FixedValueTest, MultiplicationExactCases) {
  const FixedFormat fmt(3, 2);  // step 0.25
  const auto raw = [&](double v) {
    return fmt.quantize_saturate(v, RoundingMode::kNearestEven);
  };
  EXPECT_DOUBLE_EQ(fmt.to_real(mul_wrap(fmt, raw(1.5), raw(0.5))), 0.75);
  EXPECT_DOUBLE_EQ(fmt.to_real(mul_wrap(fmt, raw(1.5), raw(-2.0))), -3.0);
}

TEST(FixedValueTest, MultiplicationRoundsProduct) {
  const FixedFormat fmt(3, 2);  // step 0.25
  const std::int64_t half = 2;
  const std::int64_t quarter = 1;
  // 0.5 * 0.25 = 0.125 sits exactly between grid points 0 and 0.25:
  // nearest-even keeps the even point 0, away-from-zero bumps to 0.25.
  EXPECT_EQ(mul_wrap(fmt, half, quarter, RoundingMode::kNearestEven), 0);
  EXPECT_EQ(mul_wrap(fmt, half, quarter, RoundingMode::kNearestAway), 1);
  // 0.25 * 0.25 = 0.0625 is below the midpoint: rounds to 0 either way.
  EXPECT_EQ(mul_wrap(fmt, quarter, quarter, RoundingMode::kNearestAway), 0);
}

TEST(FixedValueTest, NarrowRawMatchesScaledRounding) {
  // narrow_raw(x, f) must agree with rounding x / 2^f for all modes.
  support::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::int64_t wide = rng.uniform_int(-(1 << 20), 1 << 20);
    const int f = static_cast<int>(rng.uniform_int(1, 8));
    for (const auto mode :
         {RoundingMode::kNearestEven, RoundingMode::kNearestAway,
          RoundingMode::kTowardZero, RoundingMode::kFloor}) {
      const std::int64_t got = narrow_raw(wide, f, mode);
      const std::int64_t want = round_real_to_int(
          static_cast<double>(wide) / static_cast<double>(1LL << f), mode);
      EXPECT_EQ(got, want) << "wide=" << wide << " f=" << f;
    }
  }
}

/// Property: wrapping addition is associative and commutative (a group
/// mod 2^W), unlike saturating addition.
TEST(FixedValueTest, WrapAdditionIsAssociative) {
  const FixedFormat fmt(2, 2);
  support::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    const std::int64_t a = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
    const std::int64_t b = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
    const std::int64_t c = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
    EXPECT_EQ(fmt.wrap_raw(fmt.wrap_raw(a + b) + c),
              fmt.wrap_raw(a + fmt.wrap_raw(b + c)));
    EXPECT_EQ(fmt.wrap_raw(a + b), fmt.wrap_raw(b + a));
  }
}

TEST(RoundRealToIntTest, TieBreakingPerMode) {
  EXPECT_EQ(round_real_to_int(2.5, RoundingMode::kNearestEven), 2);
  EXPECT_EQ(round_real_to_int(3.5, RoundingMode::kNearestEven), 4);
  EXPECT_EQ(round_real_to_int(-2.5, RoundingMode::kNearestEven), -2);
  EXPECT_EQ(round_real_to_int(2.5, RoundingMode::kNearestAway), 3);
  EXPECT_EQ(round_real_to_int(-2.5, RoundingMode::kNearestAway), -3);
  EXPECT_EQ(round_real_to_int(2.9, RoundingMode::kTowardZero), 2);
  EXPECT_EQ(round_real_to_int(-2.9, RoundingMode::kTowardZero), -2);
  EXPECT_EQ(round_real_to_int(2.9, RoundingMode::kFloor), 2);
  EXPECT_EQ(round_real_to_int(-2.1, RoundingMode::kFloor), -3);
}

/// Property sweep: quantization error of round-to-nearest is at most half
/// a resolution step for in-range values, across formats.
class FormatPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FormatPropertyTest, NearestRoundingErrorBounded) {
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  const double half_ulp = 0.5 * fmt.resolution();
  for (int i = 0; i <= 200; ++i) {
    const double x = fmt.min_value() +
                     (fmt.max_value() - fmt.min_value()) * i / 200.0;
    const double rounded = fmt.round_to_grid(x);
    EXPECT_LE(std::fabs(rounded - x), half_ulp + 1e-15)
        << "x=" << x << " fmt=" << fmt.to_string();
  }
}

TEST_P(FormatPropertyTest, RawRoundTripExact) {
  const auto [k, f] = GetParam();
  const FixedFormat fmt(k, f);
  for (std::int64_t raw = fmt.raw_min(); raw <= fmt.raw_max();
       raw += std::max<std::int64_t>((fmt.raw_max() - fmt.raw_min()) / 64,
                                     1)) {
    const double real = fmt.to_real(raw);
    EXPECT_TRUE(fmt.representable(real));
    EXPECT_EQ(fmt.quantize_saturate(real, RoundingMode::kNearestEven), raw);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FormatPropertyTest,
    ::testing::Values(std::pair{1, 0}, std::pair{1, 3}, std::pair{2, 2},
                      std::pair{2, 6}, std::pair{3, 5}, std::pair{4, 4},
                      std::pair{2, 14}, std::pair{8, 8}));

}  // namespace
}  // namespace ldafp::fixed
