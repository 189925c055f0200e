// Kernel-level checks of fixed/simd.h: plan validation/deferral
// decisions, and tile scoring on raw words pitted against the scalar
// MAC core dot_datapath_raw — one level below the classifier plumbing
// that tests/runtime/simd_identity_test sweeps.
#include "fixed/simd.h"

#include <gtest/gtest.h>

#include <vector>

#include "fixed/dot.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::fixed::simd {
namespace {

TEST(SimdTest, DeferralDecisionTracksWordLengthAndDim) {
  const std::vector<std::int64_t> w(1024, 1);
  const FixedFormat small(2, 6);  // W = 8: always deferrable
  EXPECT_TRUE(make_plan(w.data(), 1024, small,
                        RoundingMode::kNearestEven, AccumulatorMode::kWide)
                  .defer_safe);
  const FixedFormat wide(2, 29);  // W = 31: products already 60 bits
  EXPECT_TRUE(make_plan(w.data(), 1, wide, RoundingMode::kNearestEven,
                        AccumulatorMode::kWide)
                  .defer_safe);
  EXPECT_FALSE(make_plan(w.data(), 7, wide, RoundingMode::kNearestEven,
                         AccumulatorMode::kWide)
                   .defer_safe);
  // Narrow products shrink by F bits, so the same format defers fine.
  EXPECT_TRUE(make_plan(w.data(), 7, wide, RoundingMode::kNearestEven,
                        AccumulatorMode::kNarrow)
                  .defer_safe);
}

/// Per-step reference: the scalar MAC core.
std::int64_t ref_dot(const std::vector<std::int64_t>& w,
                     const std::vector<std::int64_t>& x,
                     const FixedFormat& fmt, RoundingMode mode,
                     AccumulatorMode acc) {
  return dot_datapath_raw(w.data(), x.data(), w.size(), fmt, mode, acc);
}

TEST(SimdTest, TileScoringMatchesDotDatapathOnRawWords) {
  support::Rng rng(77);
  for (const auto& fmt : {FixedFormat(2, 2), FixedFormat(2, 6),
                          FixedFormat(3, 5), FixedFormat(4, 12),
                          FixedFormat(2, 29), FixedFormat(31, 0)}) {
    for (const auto mode :
         {RoundingMode::kNearestEven, RoundingMode::kNearestAway,
          RoundingMode::kTowardZero, RoundingMode::kFloor}) {
      for (const auto acc :
           {AccumulatorMode::kWide, AccumulatorMode::kNarrow}) {
        for (const std::size_t dim : {std::size_t{1}, std::size_t{9}}) {
          std::vector<std::int64_t> w(dim);
          for (auto& v : w) v = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
          const DotPlan plan =
              make_plan(w.data(), dim, fmt, mode, acc);
          // Raw words drawn over the full range, including the extremes
          // that drive products and accumulators to the wrap edges.
          std::vector<std::int64_t> tile(dim * kLane);
          for (auto& v : tile) {
            v = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
          }
          std::int64_t y[kLane];
          // A vector backend must take every full defer_safe tile (so
          // the check below is never vacuous there) and no partial one.
          const bool scored = score_tile(plan, tile.data(), y);
          EXPECT_EQ(scored, active_backend() != Backend::kScalar &&
                                plan.defer_safe)
              << fmt.to_string() << " dim=" << dim;
          EXPECT_FALSE(score_tile(plan, tile.data(), y, kLane - 1));
          if (!scored) continue;
          for (std::size_t lane = 0; lane < kLane; ++lane) {
            std::vector<std::int64_t> x(dim);
            for (std::size_t m = 0; m < dim; ++m) {
              x[m] = tile[m * kLane + lane];
            }
            ASSERT_EQ(y[lane], ref_dot(w, x, fmt, mode, acc))
                << fmt.to_string() << " " << to_string(mode) << " "
                << to_string(acc) << " dim=" << dim << " lane=" << lane
                << " backend=" << to_string(active_backend());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldafp::fixed::simd
