#include "model/drift.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "support/rng.h"

namespace ldafp::model {
namespace {

std::vector<double> gaussian_scores(std::size_t n, double mean,
                                    double sigma, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.gaussian(mean, sigma));
  return out;
}

TEST(DriftDetectorTest, IdenticalDistributionDoesNotDrift) {
  DriftDetector detector;
  detector.set_reference(gaussian_scores(512, 0.0, 1.0, 1));
  for (const double s : gaussian_scores(128, 0.0, 1.0, 2)) {
    detector.observe(s);
  }
  EXPECT_LT(detector.ks_statistic(), 0.15);
  EXPECT_LT(detector.psi(), 0.25);
  EXPECT_FALSE(detector.drifted());
}

TEST(DriftDetectorTest, ShiftedDistributionDrifts) {
  DriftDetector detector;
  detector.set_reference(gaussian_scores(512, 0.0, 1.0, 3));
  for (const double s : gaussian_scores(128, 2.5, 1.0, 4)) {
    detector.observe(s);
  }
  EXPECT_GT(detector.ks_statistic(), 0.5);
  EXPECT_GT(detector.psi(), 0.25);
  EXPECT_TRUE(detector.drifted());
}

TEST(DriftDetectorTest, NeedsMinScoresBeforeFiring) {
  DriftDetector detector;
  detector.set_reference(gaussian_scores(512, 0.0, 1.0, 5));
  // Wildly shifted, but below kDriftMinScores: the gate must stay closed.
  for (const double s : gaussian_scores(kDriftMinScores - 1, 10.0, 0.1, 6)) {
    detector.observe(s);
  }
  EXPECT_FALSE(detector.drifted());
  detector.observe(10.0);
  EXPECT_TRUE(detector.drifted());
}

TEST(DriftDetectorTest, KsStatisticMatchesHandComputedValue) {
  DriftDetector detector;
  detector.set_reference({1.0, 2.0, 3.0, 4.0});
  detector.observe(3.5);
  detector.observe(4.5);
  // F_ref steps 0.25 at {1,2,3,4}; F_live steps 0.5 at {3.5,4.5}.
  // Max gap is 0.75 just before 3.5 (F_ref = 0.75, F_live = 0).
  EXPECT_NEAR(detector.ks_statistic(), 0.75, 1e-12);
}

TEST(DriftDetectorTest, SetReferenceResetsLiveWindow) {
  DriftDetector detector;
  detector.set_reference(gaussian_scores(256, 0.0, 1.0, 7));
  for (const double s : gaussian_scores(kDriftMinScores, 5.0, 1.0, 8)) {
    detector.observe(s);
  }
  EXPECT_TRUE(detector.drifted());
  detector.set_reference(gaussian_scores(256, 5.0, 1.0, 9));
  EXPECT_EQ(detector.live_count(), 0u);
  EXPECT_FALSE(detector.drifted());
}

TEST(DriftDetectorTest, LiveWindowIsARing) {
  DriftDetector detector;
  detector.set_reference(gaussian_scores(1024, 0.0, 1.0, 10));
  // Flood with shifted scores, then overwrite the ring with matching
  // ones: only the newest kDriftWindow scores should matter.
  for (const double s : gaussian_scores(2 * kDriftWindow, 8.0, 1.0, 11)) {
    detector.observe(s);
  }
  EXPECT_TRUE(detector.drifted());
  for (const double s : gaussian_scores(kDriftWindow, 0.0, 1.0, 12)) {
    detector.observe(s);
  }
  EXPECT_EQ(detector.live_count(), kDriftWindow);
  EXPECT_FALSE(detector.drifted());
}

TEST(DriftDetectorTest, PublishExportsGauges) {
  obs::MetricsRegistry registry;
  DriftDetector detector;
  detector.set_reference(gaussian_scores(256, 0.0, 1.0, 13));
  for (const double s : gaussian_scores(40, 0.5, 1.0, 14)) {
    detector.observe(s);
  }
  detector.publish(registry, "bci");
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  bool saw_ks = false;
  bool saw_live = false;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "model.drift.ks") saw_ks = true;
    if (g.name == "model.drift.live_scores") {
      saw_live = true;
      EXPECT_EQ(g.value, 40.0);
    }
  }
  EXPECT_TRUE(saw_ks);
  EXPECT_TRUE(saw_live);
}

}  // namespace
}  // namespace ldafp::model
