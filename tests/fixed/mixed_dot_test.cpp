#include "fixed/mixed_dot.h"

#include <gtest/gtest.h>

#include "quantized_dot.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::fixed {
namespace {

TEST(MixedFormatTest, ConstructionAndAccessors) {
  const MixedFormat layout(2, {2, 4, 0});
  EXPECT_EQ(layout.integer_bits(), 2);
  EXPECT_EQ(layout.size(), 3u);
  EXPECT_EQ(layout.max_frac_bits(), 4);
  EXPECT_EQ(layout.frac_bits(1), 4);
  EXPECT_EQ(layout.total_bits(), (2 + 2) + (2 + 4) + (2 + 0));
  EXPECT_EQ(layout.element_format(0), FixedFormat(2, 2));
}

TEST(MixedFormatTest, Guards) {
  EXPECT_THROW(MixedFormat(0, {1}), ldafp::InvalidArgumentError);
  EXPECT_THROW(MixedFormat(2, {}), ldafp::InvalidArgumentError);
  EXPECT_THROW(MixedFormat(2, {-1}), ldafp::InvalidArgumentError);
  EXPECT_THROW(MixedFormat(2, {61}), ldafp::InvalidArgumentError);
}

TEST(MixedFormatTest, SnapUsesPerElementGrids) {
  const MixedFormat layout(2, {0, 2});
  const linalg::Vector snapped = layout.snap(linalg::Vector{0.6, 0.6});
  EXPECT_DOUBLE_EQ(snapped[0], 1.0);   // integer grid
  EXPECT_DOUBLE_EQ(snapped[1], 0.5);   // quarter grid
  EXPECT_TRUE(layout.on_grid(snapped));
  EXPECT_FALSE(layout.on_grid(linalg::Vector{0.5, 0.5}));  // 0.5 not in Q2.0
}

TEST(MixedDotTest, MatchesExactArithmeticWhenInRange) {
  const MixedFormat layout(3, {1, 3});
  const FixedFormat feature_fmt(3, 3);
  const linalg::Vector w{1.5, -0.625};
  const linalg::Vector x{2.0, 1.0};
  // 3.0 - 0.625 = 2.375, representable in Q3.3.
  const std::int64_t y = mixed_dot_datapath(layout, w, x, feature_fmt);
  EXPECT_DOUBLE_EQ(feature_fmt.to_real(y), 2.375);
}

TEST(MixedDotTest, UniformLayoutMatchesWideDot) {
  // With all F_m equal the mixed datapath must agree bit-for-bit with
  // the uniform wide-accumulator datapath.
  support::Rng rng(7);
  const FixedFormat fmt(2, 4);
  const MixedFormat layout(2, std::vector<int>(5, 4));
  for (int trial = 0; trial < 200; ++trial) {
    linalg::Vector w(5);
    linalg::Vector x(5);
    for (std::size_t i = 0; i < 5; ++i) {
      w[i] = fmt.round_to_grid(rng.uniform(fmt.min_value(),
                                           fmt.max_value()));
      x[i] = rng.uniform(fmt.min_value(), fmt.max_value());
    }
    DotDiagnostics mixed_diag;
    const std::int64_t mixed = mixed_dot_datapath(
        layout, w, x, fmt, RoundingMode::kNearestEven, &mixed_diag);
    DotDiagnostics wide_diag;
    const std::int64_t wide =
        quantized_dot(w, x, fmt, RoundingMode::kNearestEven,
                      AccumulatorMode::kWide, &wide_diag);
    EXPECT_EQ(mixed, wide) << "trial " << trial;
    EXPECT_EQ(mixed_diag.final_overflow, wide_diag.final_overflow);
  }
}

TEST(MixedDotTest, CoarseWeightsLoseOnlyTheirOwnPrecision) {
  // A coarse (F=0) weight on a zero feature must not corrupt the fine
  // element's contribution.
  const MixedFormat layout(2, {0, 6});
  const FixedFormat feature_fmt(2, 6);
  const linalg::Vector w{1.0, 0.015625};  // exactly on both grids
  const linalg::Vector x{0.0, 1.0};
  const std::int64_t y = mixed_dot_datapath(layout, w, x, feature_fmt);
  EXPECT_DOUBLE_EQ(feature_fmt.to_real(y), 0.015625);
}

TEST(MixedDotTest, WrappingPropertyHolds) {
  // The paper's two's-complement property carries over: intermediate
  // overflow is harmless when the final sum fits.
  const MixedFormat layout(3, {0, 0, 0});
  const FixedFormat feature_fmt(3, 0);
  const linalg::Vector w{3.0, 3.0, -4.0};
  const linalg::Vector x{1.0, 1.0, 1.0};
  DotDiagnostics diag;
  const std::int64_t y = mixed_dot_datapath(
      layout, w, x, feature_fmt, RoundingMode::kNearestEven, &diag);
  EXPECT_DOUBLE_EQ(feature_fmt.to_real(y), 2.0);
  EXPECT_GE(diag.accumulator_wraps, 1);
  EXPECT_FALSE(diag.final_overflow);
}

TEST(MixedDotTest, Guards) {
  const MixedFormat layout(2, {2, 2});
  const FixedFormat feature_fmt(2, 2);
  EXPECT_THROW(mixed_dot_datapath(layout, linalg::Vector{1.0},
                                  linalg::Vector{1.0, 1.0}, feature_fmt),
               ldafp::InvalidArgumentError);
  // Off-grid weight.
  EXPECT_THROW(mixed_dot_datapath(layout, linalg::Vector{0.3, 0.0},
                                  linalg::Vector{1.0, 1.0}, feature_fmt),
               ldafp::InvalidArgumentError);
  // Integer-bit mismatch with the feature format.
  EXPECT_THROW(mixed_dot_datapath(layout, linalg::Vector{0.25, 0.0},
                                  linalg::Vector{1.0, 1.0},
                                  FixedFormat(3, 2)),
               ldafp::InvalidArgumentError);
}

}  // namespace
}  // namespace ldafp::fixed
