// SIMD↔scalar bit-identity sweep (DESIGN.md §14), in the spirit of
// tests/obs/sink_identity_test: the vector kernels are an optimization
// seam that must never change a single bit.  Every FixedFormat ×
// RoundingMode × AccumulatorMode combination of the PR-1 parity matrix
// is scored through (a) the per-sample FixedClassifier datapath, (b)
// the BatchScorer forced onto the scalar backend (every row on the
// Datapath::dot fallback), and (c) the BatchScorer on the best
// available vector backend, across batch sizes that are not multiples
// of the tile width and dim=1 edge cases.  Projections and labels must
// agree exactly everywhere; the last test repeats the comparison on
// both arithmetic datapaths (two's complement and LNS).
//
// On hosts without a compiled vector backend the sweep degenerates to
// scalar-vs-scalar, which still pins the packed path to the per-sample
// reference (the configuration the LDAFP_ENABLE_SIMD=OFF CI leg runs).
#include <gtest/gtest.h>

#include <vector>

#include "fixed/simd.h"
#include "runtime/batch_scorer.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::runtime {
namespace {

using linalg::Vector;
namespace simd = fixed::simd;

/// Restores automatic dispatch even when an assertion fails mid-test.
struct BackendGuard {
  ~BackendGuard() { simd::clear_backend_override(); }
};

core::FixedClassifier random_classifier(const fixed::FixedFormat& fmt,
                                        std::size_t dim, support::Rng& rng,
                                        fixed::RoundingMode mode,
                                        fixed::AccumulatorMode acc) {
  Vector w(dim);
  for (std::size_t m = 0; m < dim; ++m) {
    w[m] = fmt.to_real(rng.uniform_int(fmt.raw_min(), fmt.raw_max()));
  }
  const double threshold =
      fmt.to_real(rng.uniform_int(fmt.raw_min(), fmt.raw_max()));
  return core::FixedClassifier(fmt, w, threshold, mode, acc);
}

std::vector<Vector> random_samples(std::size_t n, std::size_t dim,
                                   double range, support::Rng& rng) {
  std::vector<Vector> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector x(dim);
    for (std::size_t m = 0; m < dim; ++m) x[m] = rng.uniform(-range, range);
    xs.push_back(std::move(x));
  }
  return xs;
}

TEST(SimdIdentityTest, BackendNamesRoundTrip) {
  EXPECT_STREQ(simd::to_string(simd::Backend::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Backend::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Backend::kNeon), "neon");
  EXPECT_TRUE(simd::backend_available(simd::Backend::kScalar));
}

TEST(SimdIdentityTest, OverrideRejectsUnavailableBackend) {
  BackendGuard guard;
  for (const auto b : {simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (!simd::backend_available(b)) {
      EXPECT_THROW(simd::set_backend_override(b),
                   ldafp::InvalidArgumentError);
    }
  }
  simd::set_backend_override(simd::Backend::kScalar);
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  simd::clear_backend_override();
}

TEST(SimdIdentityTest, PlanRejectsOversizedFormats) {
  const std::int64_t w[2] = {1, -1};
  // W = 32 > 31: raw products no longer provably fit int64.
  EXPECT_THROW(simd::make_plan(w, 2, fixed::FixedFormat(30, 2),
                               fixed::RoundingMode::kNearestEven,
                               fixed::AccumulatorMode::kWide),
               ldafp::InvalidArgumentError);
  // K + 2F = 63 > 62: the wide accumulator register exceeds int64.
  EXPECT_THROW(simd::make_plan(w, 2, fixed::FixedFormat(3, 30),
                               fixed::RoundingMode::kNearestEven,
                               fixed::AccumulatorMode::kWide),
               ldafp::InvalidArgumentError);
  // Q2.14 (W = 16) is comfortably inside the envelope.
  const auto plan = simd::make_plan(w, 2, fixed::FixedFormat(2, 14),
                                    fixed::RoundingMode::kNearestEven,
                                    fixed::AccumulatorMode::kWide);
  EXPECT_TRUE(plan.defer_safe);
}

// The full parity matrix: formats of the PR-1 sweep plus wide-word
// formats near the datapath envelope, every rounding mode, both
// accumulators, batch sizes around the kLane tile width (remainder
// lanes), and dim=1.
TEST(SimdIdentityTest, VectorBackendBitIdenticalToScalarAcrossMatrix) {
  BackendGuard guard;
  const simd::Backend best = simd::active_backend();
  support::Rng rng(4242);
  const std::vector<fixed::FixedFormat> formats = {
      {2, 2}, {2, 4}, {3, 5}, {2, 10}, {4, 12}, {2, 6}, {1, 0}, {8, 8},
      {2, 29}, {31, 0}};
  const std::vector<fixed::RoundingMode> modes = {
      fixed::RoundingMode::kNearestEven, fixed::RoundingMode::kNearestAway,
      fixed::RoundingMode::kTowardZero, fixed::RoundingMode::kFloor};
  const std::vector<std::size_t> batch_sizes = {1, 3, 7, 8, 9, 16, 65};
  for (const auto& fmt : formats) {
    for (const auto mode : modes) {
      for (const auto acc : {fixed::AccumulatorMode::kWide,
                             fixed::AccumulatorMode::kNarrow}) {
        for (const std::size_t dim : {std::size_t{1}, std::size_t{7}}) {
          const auto clf = random_classifier(fmt, dim, rng, mode, acc);
          const BatchScorer scorer(clf);
          for (const std::size_t n : batch_sizes) {
            // Sample past the representable range so saturation packs
            // extreme words into the kernels too.
            const auto xs =
                random_samples(n, dim, 1.5 * fmt.max_value() + 1.0, rng);
            simd::set_backend_override(simd::Backend::kScalar);
            const auto scalar = scorer.score(xs);
            simd::set_backend_override(best);
            const auto vec = scorer.score(xs);
            simd::clear_backend_override();
            ASSERT_EQ(scalar.size(), n);
            ASSERT_EQ(vec.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(vec[i].projection_raw, scalar[i].projection_raw)
                  << fmt.to_string() << " " << fixed::to_string(mode) << " "
                  << fixed::to_string(acc) << " dim=" << dim << " n=" << n
                  << " sample " << i << " backend "
                  << simd::to_string(best);
              ASSERT_EQ(vec[i].label, scalar[i].label);
              // And both must equal the per-sample reference datapath.
              ASSERT_EQ(scalar[i].projection_raw, clf.project_raw(xs[i]));
              ASSERT_EQ(scalar[i].label, clf.classify(xs[i]));
            }
          }
        }
      }
    }
  }
}

// Batch classification (BatchScorer, the one batch scorer) on both
// arithmetic datapaths, under the scalar override and the best backend:
// every row — vector tile or Datapath::dot fallback — equals per-sample
// classify/project_raw, for batch sizes off the tile width.  LNS has no
// vector plan, so its rows take the fallback under every backend.
TEST(SimdIdentityTest, ClassifyBatchMatchesPerSampleUnderEveryBackend) {
  BackendGuard guard;
  const simd::Backend best = simd::active_backend();
  support::Rng rng(99);
  const fixed::FixedFormat fmt(2, 6);
  const std::size_t dim = 11;
  for (const auto kind : {fixed::DatapathKind::kTwosComplement,
                          fixed::DatapathKind::kLns}) {
    for (const auto acc : {fixed::AccumulatorMode::kWide,
                           fixed::AccumulatorMode::kNarrow}) {
      Vector w(dim);
      for (std::size_t m = 0; m < dim; ++m) w[m] = rng.uniform(-2.0, 2.0);
      const core::FixedClassifier clf(fmt, w, rng.uniform(-1.0, 1.0),
                                      fixed::RoundingMode::kNearestAway, acc,
                                      kind);
      const BatchScorer scorer(clf);
      for (const std::size_t n : {1u, 7u, 37u, 128u}) {
        const auto xs = random_samples(n, dim, 3.0, rng);
        for (const auto backend : {simd::Backend::kScalar, best}) {
          simd::set_backend_override(backend);
          const auto scored = scorer.score(xs);
          ASSERT_EQ(scored.size(), n);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(scored[i].projection_raw, clf.project_raw(xs[i]))
                << fixed::to_string(kind) << " " << fixed::to_string(acc)
                << " n=" << n << " sample " << i << " backend "
                << simd::to_string(backend);
            ASSERT_EQ(scored[i].label, clf.classify(xs[i]));
          }
        }
        simd::clear_backend_override();
      }
    }
  }
}

}  // namespace
}  // namespace ldafp::runtime
