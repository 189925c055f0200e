#include "fixed/grid.h"

#include <gtest/gtest.h>

#include "support/error.h"

namespace ldafp::fixed {
namespace {

const FixedFormat kQ22(2, 2);  // step 0.25, range [-2, 1.75]

TEST(GridTest, SnapToGridRoundsEveryElement) {
  const linalg::Vector v{0.3, -0.9, 5.0};
  const linalg::Vector snapped = snap_to_grid(v, kQ22);
  EXPECT_DOUBLE_EQ(snapped[0], 0.25);
  EXPECT_DOUBLE_EQ(snapped[1], -1.0);
  EXPECT_DOUBLE_EQ(snapped[2], 1.75);  // saturates
  EXPECT_TRUE(on_grid(snapped, kQ22));
}

TEST(GridTest, OnGridDetectsOffGridValues) {
  EXPECT_TRUE(on_grid(linalg::Vector{0.25, -2.0}, kQ22));
  EXPECT_FALSE(on_grid(linalg::Vector{0.1}, kQ22));
  EXPECT_FALSE(on_grid(linalg::Vector{2.0}, kQ22));  // out of range
}

TEST(GridTest, FloorAndCeil) {
  EXPECT_DOUBLE_EQ(grid_floor(0.3, kQ22), 0.25);
  EXPECT_DOUBLE_EQ(grid_ceil(0.3, kQ22), 0.5);
  EXPECT_DOUBLE_EQ(grid_floor(0.25, kQ22), 0.25);
  EXPECT_DOUBLE_EQ(grid_ceil(0.25, kQ22), 0.25);
  EXPECT_DOUBLE_EQ(grid_floor(-0.3, kQ22), -0.5);
  EXPECT_DOUBLE_EQ(grid_ceil(-0.3, kQ22), -0.25);
  // Clamped at the range edges.
  EXPECT_DOUBLE_EQ(grid_floor(-10.0, kQ22), -2.0);
  EXPECT_DOUBLE_EQ(grid_ceil(10.0, kQ22), 1.75);
}

TEST(GridTest, CountMatchesEnumeration) {
  EXPECT_EQ(grid_count(0.0, 1.0, kQ22), 5);      // 0, .25, .5, .75, 1
  EXPECT_EQ(grid_count(0.1, 0.9, kQ22), 3);      // .25, .5, .75
  EXPECT_EQ(grid_count(0.26, 0.49, kQ22), 0);    // none
  EXPECT_EQ(grid_count(-3.0, 3.0, kQ22), 16);    // full range 2^4
  EXPECT_THROW(grid_count(1.0, 0.0, kQ22), ldafp::InvalidArgumentError);
}

TEST(GridTest, PointsAreAscendingAndOnGrid) {
  const auto pts = grid_points(-0.6, 0.6, kQ22);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front(), -0.5);
  EXPECT_DOUBLE_EQ(pts.back(), 0.5);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i] - pts[i - 1], 0.25);
  }
}

TEST(GridTest, PointsCapGuard) {
  EXPECT_THROW(grid_points(-2.0, 1.75, kQ22, 4),
               ldafp::InvalidArgumentError);
}

}  // namespace
}  // namespace ldafp::fixed
