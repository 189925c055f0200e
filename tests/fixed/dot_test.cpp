#include "fixed/dot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fixed/datapath.h"
#include "linalg/vector.h"
#include "quantized_dot.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::fixed {
namespace {

const FixedFormat kQ44(4, 4);  // step 1/16, range [-8, 7.9375]

/// Real value of the quantized dot's result word.
double dot_real(const linalg::Vector& w, const linalg::Vector& x,
                const FixedFormat& fmt,
                RoundingMode mode = RoundingMode::kNearestEven,
                AccumulatorMode acc = AccumulatorMode::kWide,
                DotDiagnostics* diag = nullptr) {
  return fmt.to_real(quantized_dot(w, x, fmt, mode, acc, diag));
}

TEST(DotTest, MatchesDoubleWhenEverythingRepresentable) {
  const linalg::Vector w{1.5, -2.0, 0.25};
  const linalg::Vector x{2.0, 1.0, -4.0};
  // Exact: 3 - 2 - 1 = 0.
  EXPECT_DOUBLE_EQ(dot_real(w, x, kQ44), 0.0);
}

TEST(DotTest, WideModeKeepsFullProductPrecision) {
  const FixedFormat fmt(2, 2);  // step 0.25
  const linalg::Vector w{0.5, 0.5};
  const linalg::Vector x{0.25, 0.25};
  // Each product = 0.125 (a grid-tie); the exact sum 0.25 is on the grid.
  // Wide accumulates exactly and returns 0.25 under any rounding mode.
  for (const auto mode :
       {RoundingMode::kNearestEven, RoundingMode::kNearestAway}) {
    EXPECT_DOUBLE_EQ(dot_real(w, x, fmt, mode, AccumulatorMode::kWide),
                     0.25);
  }
  // Narrow rounds each 0.125 product first, so the tie-break leaks into
  // the result: nearest-even drops both to 0, away-from-zero doubles.
  EXPECT_DOUBLE_EQ(dot_real(w, x, fmt, RoundingMode::kNearestEven,
                            AccumulatorMode::kNarrow),
                   0.0);
  EXPECT_DOUBLE_EQ(dot_real(w, x, fmt, RoundingMode::kNearestAway,
                            AccumulatorMode::kNarrow),
                   0.5);
}

TEST(DotTest, PaperWrapPropertyIntermediateOverflowHarmless) {
  // Q3.0 version of the paper's example as a dot product:
  // w = (3, 3, -4), x = (1, 1, 1): intermediate 3+3 wraps, final 2 fits.
  const FixedFormat q30(3, 0);
  const linalg::Vector w{3.0, 3.0, -4.0};
  const linalg::Vector x{1.0, 1.0, 1.0};
  for (const auto acc : {AccumulatorMode::kWide, AccumulatorMode::kNarrow}) {
    DotDiagnostics diag;
    const double y =
        dot_real(w, x, q30, RoundingMode::kNearestEven, acc, &diag);
    EXPECT_DOUBLE_EQ(y, 2.0) << to_string(acc);
    EXPECT_GE(diag.accumulator_wraps, 1) << to_string(acc);
    EXPECT_FALSE(diag.final_overflow) << to_string(acc);
  }
}

TEST(DotTest, FinalOverflowFlagged) {
  const FixedFormat q30(3, 0);
  const linalg::Vector w{3.0, 3.0};
  const linalg::Vector x{1.0, 1.0};  // exact sum 6 > 3
  DotDiagnostics diag;
  const double y = dot_real(w, x, q30, RoundingMode::kNearestEven,
                            AccumulatorMode::kWide, &diag);
  EXPECT_TRUE(diag.final_overflow);
  EXPECT_DOUBLE_EQ(y, -2.0);  // 6 wrapped into [-4, 3]
}

TEST(DotTest, ProductOverflowFlagged) {
  const FixedFormat q22(2, 2);  // range [-2, 1.75]
  const linalg::Vector w{1.75};
  const linalg::Vector x{1.75};  // product 3.0625 exceeds the range
  for (const auto acc : {AccumulatorMode::kWide, AccumulatorMode::kNarrow}) {
    DotDiagnostics diag;
    dot_real(w, x, q22, RoundingMode::kNearestEven, acc, &diag);
    EXPECT_EQ(diag.product_overflows, 1) << to_string(acc);
  }
}

TEST(DotTest, EmptyVectorsGiveZero) {
  EXPECT_EQ(dot_datapath_raw(nullptr, nullptr, 0, kQ44), 0);
}

/// Property: in both architectures, when no product overflows and the
/// exact sum fits, the wide result equals the exactly-rounded true dot
/// product.
class DotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DotPropertyTest, WideResultEqualsRoundedExactSum) {
  support::Rng rng(1000 + GetParam());
  const FixedFormat fmt(3, GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + trial % 8;
    std::vector<std::int64_t> w;
    std::vector<std::int64_t> x;
    // Keep |values| <= 1 so products and sums stay in range.
    const std::int64_t unit = std::int64_t{1} << fmt.frac_bits();
    for (std::size_t i = 0; i < n; ++i) {
      w.push_back(rng.uniform_int(-unit, unit));
      x.push_back(rng.uniform_int(-unit, unit));
    }
    DotDiagnostics diag;
    const double y = fmt.to_real(
        dot_datapath_raw(w.data(), x.data(), n, fmt,
                         RoundingMode::kNearestEven, AccumulatorMode::kWide,
                         &diag));
    // Exact sum in double (products of <=2^14-step values are exact).
    double exact = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      exact += fmt.to_real(w[i]) * fmt.to_real(x[i]);
    }
    // The overflow flag must agree with the exact sum's range check...
    const bool out_of_range =
        exact < fmt.min_value() || exact > fmt.max_value();
    EXPECT_EQ(diag.final_overflow, out_of_range);
    // ...and in-range sums must round exactly.
    if (!out_of_range) {
      EXPECT_DOUBLE_EQ(y, fmt.round_to_grid(exact))
          << "n=" << n << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FracBits, DotPropertyTest,
                         ::testing::Values(0, 1, 2, 4, 6, 8));

/// Property: the narrow datapath equals summing individually-rounded
/// products when nothing overflows.
TEST(DotTest, NarrowEqualsSumOfRoundedProducts) {
  support::Rng rng(77);
  const FixedFormat fmt(4, 3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + trial % 6;
    std::vector<std::int64_t> w;
    std::vector<std::int64_t> x;
    const std::int64_t unit = std::int64_t{1} << fmt.frac_bits();
    for (std::size_t i = 0; i < n; ++i) {
      w.push_back(rng.uniform_int(-unit, unit));
      x.push_back(rng.uniform_int(-unit, unit));
    }
    const std::int64_t y =
        dot_datapath_raw(w.data(), x.data(), n, fmt,
                         RoundingMode::kNearestEven, AccumulatorMode::kNarrow);
    // Each product rounded to QK.F on its own (one-term narrow dots).
    double manual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      manual += fmt.to_real(dot_datapath_raw(&w[i], &x[i], 1, fmt,
                                             RoundingMode::kNearestEven,
                                             AccumulatorMode::kNarrow));
    }
    EXPECT_DOUBLE_EQ(fmt.to_real(y), manual);
  }
}

// Signed-overflow audit (DESIGN.md §14): raw products need 2W-1 bits,
// so the datapath rejects word lengths past 31 even when K + 2F alone
// would pass — pre-audit, Q40.10 (K+2F = 60) reached w*x as silent UB.
TEST(DotTest, RejectsWordLengthsWhoseProductsOverflowInt64) {
  const FixedFormat fmt(40, 10);
  const std::int64_t w = 1;
  const std::int64_t x = 1;
  EXPECT_THROW(dot_datapath_raw(&w, &x, 1, fmt), ldafp::InvalidArgumentError);
}

// The final-overflow diagnostic accumulates the unwrapped exact sum; on
// the widest legal formats that sum exceeds int64 after a few maximal
// products (8 * 2^60 = 2^63).  Pre-audit this was UB in the diagnostic
// itself (caught by the UBSan preset); now it must simply report the
// Eq. 20 violation.
TEST(DotTest, FinalOverflowDiagnosticSurvivesWidestLegalFormat) {
  const FixedFormat fmt(2, 29);  // W = 31, K + 2F = 60
  const std::vector<std::int64_t> w(8, fmt.raw_min());  // -2^30
  const std::vector<std::int64_t> x(8, fmt.raw_min());  // product = 2^60
  DotDiagnostics diag;
  dot_datapath_raw(w.data(), x.data(), w.size(), fmt,
                   RoundingMode::kNearestEven, AccumulatorMode::kWide, &diag);
  EXPECT_TRUE(diag.final_overflow);
  EXPECT_EQ(diag.product_overflows, 8);
}

// Without a DotDiagnostics the kernels sum modulo 2^64 and wrap once;
// with one they wrap every step.  Both must return the same word,
// including on the widest legal formats where every product and the
// running sum wrap.
TEST(DotTest, PlainKernelMatchesDiagnosticKernelBitwise) {
  support::Rng rng(1606);
  const FixedFormat formats[] = {FixedFormat(2, 6), FixedFormat(4, 4),
                                 FixedFormat(1, 15), FixedFormat(2, 29),
                                 FixedFormat(31, 0)};
  const RoundingMode modes[] = {RoundingMode::kNearestEven,
                                RoundingMode::kNearestAway,
                                RoundingMode::kTowardZero,
                                RoundingMode::kFloor};
  for (const FixedFormat& fmt : formats) {
    for (int trial = 0; trial < 200; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(0, 64));
      std::vector<std::int64_t> w(n);
      std::vector<std::int64_t> x(n);
      for (std::size_t m = 0; m < n; ++m) {
        w[m] = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
        x[m] = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
      }
      for (const RoundingMode mode : modes) {
        for (const AccumulatorMode acc :
             {AccumulatorMode::kWide, AccumulatorMode::kNarrow}) {
          DotDiagnostics diag;
          const std::int64_t with =
              dot_datapath_raw(w.data(), x.data(), n, fmt, mode, acc, &diag);
          const std::int64_t plain =
              dot_datapath_raw(w.data(), x.data(), n, fmt, mode, acc);
          ASSERT_EQ(plain, with) << fmt.to_string() << " n=" << n << " "
                                 << to_string(acc);
        }
      }
    }
  }
}

TEST(DotTest, QuantizeAndToRealRoundTrip) {
  // The datapath's operand quantizer is exact on representable values.
  const auto dp = make_datapath(DatapathKind::kTwosComplement, kQ44);
  for (const double v : {0.5, -1.25, 7.0}) {
    EXPECT_DOUBLE_EQ(dp->to_real(dp->quantize(v)), v);
  }
}

}  // namespace
}  // namespace ldafp::fixed
