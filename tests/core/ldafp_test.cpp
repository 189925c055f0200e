#include "core/ldafp.h"
#include "support/error.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/constraints.h"
#include "core/lda.h"
#include "core/local_search.h"
#include "fixed/grid.h"
#include "support/rng.h"

namespace ldafp::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Random two-class training set with the given per-class means.
TrainingSet gaussian_set(const Vector& mu_a, const Vector& mu_b,
                         std::size_t n, support::Rng& rng) {
  TrainingSet data;
  for (std::size_t i = 0; i < n; ++i) {
    Vector a(mu_a.size());
    Vector b(mu_b.size());
    for (std::size_t j = 0; j < mu_a.size(); ++j) {
      a[j] = mu_a[j] + 0.3 * rng.gaussian();
      b[j] = mu_b[j] + 0.3 * rng.gaussian();
    }
    data.class_a.push_back(std::move(a));
    data.class_b.push_back(std::move(b));
  }
  return data;
}

/// Exhaustive minimum of the LDA-FP objective over every feasible grid
/// point with t > 0 — ground truth for small instances.
double brute_force_optimum(const TrainingSet& data,
                           const fixed::FixedFormat& fmt, double beta) {
  const TrainingSet quantized = quantize_training_set(data, fmt);
  const auto model = fit_two_class_model(quantized);
  const Matrix sw = model.within_class_scatter();
  const Vector diff = model.mean_difference();
  const std::size_t dim = diff.size();

  std::vector<std::vector<double>> axes(dim);
  for (std::size_t m = 0; m < dim; ++m) {
    axes[m] = fixed::grid_points(fmt.min_value(), fmt.max_value(), fmt);
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> idx(dim, 0);
  Vector w(dim);
  for (std::size_t m = 0; m < dim; ++m) w[m] = axes[m][0];
  while (true) {
    const double t = linalg::dot(diff, w);
    if (t > 0.0 && is_feasible_weight(w, model, beta, fmt, 1e-12)) {
      best = std::min(best, exact_cost(w, sw, diff));
    }
    std::size_t m = 0;
    while (m < dim) {
      if (++idx[m] < axes[m].size()) {
        w[m] = axes[m][idx[m]];
        break;
      }
      idx[m] = 0;
      w[m] = axes[m][0];
      ++m;
    }
    if (m == dim) break;
  }
  return best;
}

LdaFpOptions tight_options() {
  LdaFpOptions options;
  options.bnb.max_nodes = 50000;
  options.bnb.max_seconds = 30.0;
  options.bnb.rel_gap = 1e-9;
  return options;
}

/// Property: branch-and-bound matches brute force on small instances,
/// across formats and data seeds.
class LdaFpOptimalityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LdaFpOptimalityTest, MatchesBruteForce) {
  const auto [seed, k_bits, f_bits] = GetParam();
  support::Rng rng(seed);
  const TrainingSet data =
      gaussian_set(Vector{0.4, -0.1}, Vector{-0.4, 0.1}, 200, rng);
  const fixed::FixedFormat fmt(k_bits, f_bits);

  const LdaFpTrainer trainer(fmt, tight_options());
  const LdaFpResult result = trainer.train(data);
  const double truth =
      brute_force_optimum(data, fmt, result.beta);

  if (!std::isfinite(truth)) {
    EXPECT_FALSE(result.found());
    return;
  }
  ASSERT_TRUE(result.found());
  EXPECT_EQ(result.search.status, opt::BnbStatus::kOptimal);
  EXPECT_NEAR(result.cost, truth, 1e-9 * (1.0 + std::fabs(truth)))
      << "fmt=" << fmt.to_string() << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, LdaFpOptimalityTest,
    ::testing::Values(std::tuple{1, 2, 2}, std::tuple{2, 2, 2},
                      std::tuple{3, 2, 3}, std::tuple{4, 3, 2},
                      std::tuple{5, 2, 2}, std::tuple{6, 2, 3},
                      std::tuple{7, 1, 3}, std::tuple{8, 3, 3}));

TEST(LdaFpTest, ResultIsFeasibleOnGridAndOriented) {
  support::Rng rng(42);
  const TrainingSet data = gaussian_set(Vector{0.3, 0.1, -0.2},
                                        Vector{-0.3, -0.1, 0.2}, 300, rng);
  const fixed::FixedFormat fmt(2, 3);
  const LdaFpTrainer trainer(fmt, tight_options());
  const LdaFpResult result = trainer.train(data);
  ASSERT_TRUE(result.found());

  EXPECT_TRUE(fixed::on_grid(result.weights, fmt));
  const TrainingSet quantized = quantize_training_set(data, fmt);
  const auto model = fit_two_class_model(quantized);
  EXPECT_TRUE(is_feasible_weight(result.weights, model, result.beta, fmt,
                                 1e-6));
  // Correct orientation: positive projected class separation.
  EXPECT_GT(linalg::dot(model.mean_difference(), result.weights), 0.0);
  // Threshold matches Eq. 12 on the quantized statistics.
  const double expected_threshold =
      0.5 * (linalg::dot(result.weights, model.class_a.mu()) +
             linalg::dot(result.weights, model.class_b.mu()));
  EXPECT_NEAR(result.threshold, expected_threshold, 1e-12);
}

TEST(LdaFpTest, NeverWorseThanRoundedLda) {
  support::Rng rng(43);
  const TrainingSet data = gaussian_set(Vector{0.5, 0.2}, Vector{-0.5, -0.2},
                                        400, rng);
  const fixed::FixedFormat fmt(2, 2);
  const LdaFpTrainer trainer(fmt, tight_options());
  const LdaFpResult result = trainer.train(data);
  ASSERT_TRUE(result.found());

  const TrainingSet quantized = quantize_training_set(data, fmt);
  const auto model = fit_two_class_model(quantized);
  const Matrix sw = model.within_class_scatter();
  const Vector diff = model.mean_difference();

  const LdaModel lda = fit_lda(quantized);
  const FixedClassifier baseline =
      quantize_lda(lda, model, result.beta, fmt,
                   LdaGainPolicy::kOverflowAware);
  const double baseline_cost =
      exact_cost(baseline.weights_real(), sw, diff);
  EXPECT_LE(result.cost, baseline_cost + 1e-12);
}

TEST(LdaFpTest, NodeBudgetGivesAnytimeResult) {
  support::Rng rng(44);
  const TrainingSet data = gaussian_set(
      Vector{0.3, 0.1, -0.2, 0.05}, Vector{-0.3, -0.1, 0.2, -0.05}, 200,
      rng);
  LdaFpOptions options = tight_options();
  options.bnb.max_nodes = 5;
  const LdaFpTrainer trainer(fixed::FixedFormat(2, 6), options);
  const LdaFpResult result = trainer.train(data);
  EXPECT_TRUE(result.found());  // warm start guarantees an incumbent
  EXPECT_LE(result.search.nodes_processed, 5u);
}

TEST(LdaFpTest, HeuristicsCanBeDisabled) {
  support::Rng rng(45);
  const TrainingSet data =
      gaussian_set(Vector{0.4, -0.1}, Vector{-0.4, 0.1}, 200, rng);
  LdaFpOptions options = tight_options();
  options.warm_start_from_lda = false;
  options.local_search = false;
  options.branch_t_first = false;
  const fixed::FixedFormat fmt(2, 2);
  const LdaFpTrainer trainer(fmt, options);
  const LdaFpResult result = trainer.train(data);
  ASSERT_TRUE(result.found());
  // Still globally optimal, just slower.
  const double truth = brute_force_optimum(data, fmt, result.beta);
  EXPECT_NEAR(result.cost, truth, 1e-9 * (1.0 + std::fabs(truth)));
}

TEST(LdaFpTest, MakeClassifierMatchesResult) {
  support::Rng rng(46);
  const TrainingSet data =
      gaussian_set(Vector{0.5}, Vector{-0.5}, 200, rng);
  const fixed::FixedFormat fmt(2, 3);
  const LdaFpTrainer trainer(fmt, tight_options());
  const LdaFpResult result = trainer.train(data);
  ASSERT_TRUE(result.found());
  const FixedClassifier clf = trainer.make_classifier(result);
  EXPECT_DOUBLE_EQ(
      linalg::max_abs_diff(clf.weights_real(), result.weights), 0.0);
}

TEST(LdaFpTest, InvalidInputsRejected) {
  const LdaFpTrainer trainer(fixed::FixedFormat(2, 2));
  EXPECT_THROW(trainer.train(TrainingSet{}), ldafp::InvalidArgumentError);
  LdaFpOptions bad;
  bad.rho = 1.0;
  EXPECT_THROW(LdaFpTrainer(fixed::FixedFormat(2, 2), bad),
               ldafp::InvalidArgumentError);
  const LdaFpResult empty;
  EXPECT_THROW(trainer.make_classifier(empty),
               ldafp::InvalidArgumentError);
}

TEST(LdaFpTest, OptionsValidateRejectsEachBadKnob) {
  EXPECT_TRUE(LdaFpOptions{}.validate().ok());

  auto rejects = [](auto&& mutate) {
    LdaFpOptions options;
    mutate(options);
    return !options.validate().ok();
  };
  EXPECT_TRUE(rejects([](LdaFpOptions& o) { o.rho = 1.0; }));
  EXPECT_TRUE(rejects([](LdaFpOptions& o) { o.rho = -0.1; }));
  EXPECT_TRUE(rejects([](LdaFpOptions& o) { o.rho = std::nan(""); }));
  // Nested options are validated through the same entry point.
  EXPECT_TRUE(rejects([](LdaFpOptions& o) { o.bnb.max_nodes = 0; }));

  // The trainer constructor raises a rejection (including nested ones).
  LdaFpOptions bad;
  bad.bnb.max_nodes = 0;
  EXPECT_THROW(LdaFpTrainer(fixed::FixedFormat(2, 2), bad),
               ldafp::InvalidArgumentError);
}

}  // namespace
}  // namespace ldafp::core
