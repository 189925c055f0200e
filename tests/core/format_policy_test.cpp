#include "core/format_policy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fixed/grid.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::core {
namespace {

using linalg::Vector;

TrainingSet two_point_set(double a, double b) {
  TrainingSet data;
  data.class_a.push_back(Vector{a});
  data.class_a.push_back(Vector{a * 0.5});
  data.class_b.push_back(Vector{b});
  data.class_b.push_back(Vector{b * 0.5});
  return data;
}

TEST(FormatPolicyTest, FormatHasRequestedSplit) {
  const TrainingSet data = two_point_set(1.0, -1.0);
  const FormatChoice choice = choose_format(data, 8, 2.0, 3);
  EXPECT_EQ(choice.format.integer_bits(), 3);
  EXPECT_EQ(choice.format.frac_bits(), 5);
}

TEST(FormatPolicyTest, ScaleIsPowerOfTwo) {
  const TrainingSet data = two_point_set(7.3, -6.1);
  const FormatChoice choice = choose_format(data, 8, 3.0, 2);
  const double log2scale = std::log2(choice.feature_scale);
  EXPECT_DOUBLE_EQ(log2scale, std::round(log2scale));
}

TEST(FormatPolicyTest, ScaledFeaturesFitRepresentableRange) {
  support::Rng rng(21);
  TrainingSet data;
  for (int i = 0; i < 200; ++i) {
    data.class_a.push_back(Vector{rng.gaussian(3.0, 5.0)});
    data.class_b.push_back(Vector{rng.gaussian(-3.0, 5.0)});
  }
  const double beta = 2.0;
  const FormatChoice choice = choose_format(data, 6, beta, 2);
  const TrainingSet scaled =
      scale_training_set(data, choice.feature_scale);
  for (const auto& x : scaled.class_a) {
    EXPECT_GE(x[0], choice.format.min_value());
    EXPECT_LE(x[0], choice.format.max_value());
  }
}

TEST(FormatPolicyTest, UpscalesSmallFeatures) {
  // Features of magnitude ~0.01 should be scaled up to use the range.
  const TrainingSet data = two_point_set(0.01, -0.01);
  const FormatChoice choice = choose_format(data, 8, 0.0, 2);
  EXPECT_GT(choice.feature_scale, 1.0);
}

TEST(FormatPolicyTest, ApplyFormatQuantizesOntoGrid) {
  const TrainingSet data = two_point_set(0.777, -0.333);
  const FormatChoice choice = choose_format(data, 6, 1.0, 2);
  const TrainingSet ready = quantize_training_set(
      scale_training_set(data, choice.feature_scale), choice.format);
  for (const auto& x : ready.class_a) {
    EXPECT_TRUE(fixed::on_grid(x, choice.format));
  }
  for (const auto& x : ready.class_b) {
    EXPECT_TRUE(fixed::on_grid(x, choice.format));
  }
}

TEST(FormatPolicyTest, ArgumentGuards) {
  const TrainingSet data = two_point_set(1.0, -1.0);
  EXPECT_THROW(choose_format(data, 0, 1.0, 1),
               ldafp::InvalidArgumentError);
  EXPECT_THROW(choose_format(data, 4, 1.0, 5),
               ldafp::InvalidArgumentError);
  EXPECT_THROW(choose_format(data, 4, -1.0, 2),
               ldafp::InvalidArgumentError);
  EXPECT_THROW(choose_format(TrainingSet{}, 4, 1.0, 2),
               ldafp::InvalidArgumentError);
}

TEST(TrainingSetTest, ValidityChecks) {
  TrainingSet data = two_point_set(1.0, -1.0);
  EXPECT_TRUE(data.valid());
  EXPECT_EQ(data.dim(), 1u);
  data.class_b.clear();
  EXPECT_FALSE(data.valid());
  TrainingSet ragged = two_point_set(1.0, -1.0);
  ragged.class_a.push_back(Vector{1.0, 2.0});
  EXPECT_FALSE(ragged.valid());
}

TEST(TrainingSetTest, ScaleGuards) {
  const TrainingSet data = two_point_set(1.0, -1.0);
  EXPECT_THROW(scale_training_set(data, 0.0),
               ldafp::InvalidArgumentError);
  EXPECT_THROW(scale_training_set(data, -2.0),
               ldafp::InvalidArgumentError);
  const TrainingSet scaled = scale_training_set(data, 2.0);
  EXPECT_DOUBLE_EQ(scaled.class_a[0][0], 2.0);
}

}  // namespace
}  // namespace ldafp::core
