// Backend-identity sweeps over the Datapath API: the two's-complement
// Datapath must be bit-identical to the raw MAC core it dispatches to
// (fixed::dot_datapath_raw), every batch path (SIMD kernels, diag path,
// BatchScorer) must agree with per-sample classification on both
// backends, and LNS scoring must be bit-deterministic at any thread
// count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/classifier.h"
#include "fixed/datapath.h"
#include "fixed/dot.h"
#include "fixed/lns.h"
#include "runtime/batch_scorer.h"
#include "sched/executor.h"
#include "sched/parallel_for.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp {
namespace {

using linalg::Vector;

std::vector<std::int64_t> random_raw_words(const fixed::FixedFormat& fmt,
                                           std::size_t n,
                                           support::Rng& rng) {
  std::vector<std::int64_t> words(n);
  for (auto& w : words) w = rng.uniform_int(fmt.raw_min(), fmt.raw_max());
  return words;
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

TEST(DatapathIdentityTest, TwosComplementDotMatchesRawCore) {
  support::Rng rng(101);
  const std::vector<fixed::FixedFormat> formats = {
      {1, 1}, {2, 2}, {2, 4}, {3, 5}, {2, 10}, {4, 12}};
  const fixed::RoundingMode modes[] = {
      fixed::RoundingMode::kNearestEven, fixed::RoundingMode::kNearestAway,
      fixed::RoundingMode::kTowardZero, fixed::RoundingMode::kFloor};
  for (const auto& fmt : formats) {
    for (const auto mode : modes) {
      for (const auto acc : {fixed::AccumulatorMode::kWide,
                             fixed::AccumulatorMode::kNarrow}) {
        const auto dp = fixed::make_datapath(
            fixed::DatapathKind::kTwosComplement, fmt, mode, acc);
        ASSERT_EQ(dp->kind(), fixed::DatapathKind::kTwosComplement);
        for (int trial = 0; trial < 16; ++trial) {
          const auto w = random_raw_words(fmt, 11, rng);
          const auto x = random_raw_words(fmt, 11, rng);
          fixed::DotDiagnostics api_diag, raw_diag;
          const std::int64_t via_api =
              dp->dot(w.data(), x.data(), w.size(), &api_diag);
          const std::int64_t via_raw = fixed::dot_datapath_raw(
              w.data(), x.data(), w.size(), fmt, mode, acc, &raw_diag);
          EXPECT_EQ(via_api, via_raw) << fmt.to_string();
          EXPECT_EQ(api_diag.product_overflows, raw_diag.product_overflows);
          EXPECT_EQ(api_diag.accumulator_wraps, raw_diag.accumulator_wraps);
          EXPECT_EQ(api_diag.final_overflow, raw_diag.final_overflow);
        }
      }
    }
  }
}

TEST(DatapathIdentityTest, TwosComplementQuantizeMatchesFixedValue) {
  support::Rng rng(102);
  const fixed::FixedFormat fmt(3, 5);
  for (const auto mode : {fixed::RoundingMode::kNearestEven,
                          fixed::RoundingMode::kFloor}) {
    const auto dp = fixed::make_datapath(
        fixed::DatapathKind::kTwosComplement, fmt, mode);
    for (int i = 0; i < 200; ++i) {
      const double v = rng.uniform(-3.0 * fmt.max_value(),
                                   3.0 * fmt.max_value());
      const std::int64_t ref = fmt.quantize_saturate(v, mode);
      EXPECT_EQ(dp->quantize(v), ref);
      EXPECT_EQ(dp->to_real(ref), fmt.to_real(ref));
    }
    // TC comparator is plain signed order on raw words.
    EXPECT_TRUE(dp->ge(3, -4));
    EXPECT_FALSE(dp->ge(-4, 3));
    EXPECT_TRUE(dp->ge(5, 5));
  }
}

TEST(DatapathIdentityTest, DotResetsDiagnosticsButLegacyAccumulates) {
  const fixed::FixedFormat fmt(2, 4);
  const auto dp =
      fixed::make_datapath(fixed::DatapathKind::kTwosComplement, fmt);
  const std::vector<std::int64_t> w = {1, 2}, x = {3, 4};
  fixed::DotDiagnostics diag;
  diag.product_overflows = 99;
  diag.accumulator_wraps = 99;
  diag.final_overflow = true;
  // The API contract: Datapath::dot owns the diag and resets it.
  dp->dot(w.data(), x.data(), w.size(), &diag);
  EXPECT_EQ(diag.product_overflows, 0);
  EXPECT_EQ(diag.accumulator_wraps, 0);
  EXPECT_FALSE(diag.final_overflow);
  // The raw core keeps its accumulate-into semantics.
  diag.product_overflows = 5;
  fixed::dot_datapath_raw(w.data(), x.data(), w.size(), fmt,
                          fixed::RoundingMode::kNearestEven,
                          fixed::AccumulatorMode::kWide, &diag);
  EXPECT_EQ(diag.product_overflows, 5);
}

TEST(DatapathIdentityTest, MakeDatapathEnforcesBackendEnvelopes) {
  // TC: the dot envelope W <= 31, K + 2F <= 62.
  EXPECT_THROW(fixed::make_datapath(fixed::DatapathKind::kTwosComplement,
                                    fixed::FixedFormat(4, 30)),
               InvalidArgumentError);
  // LNS: at least 1 sign + 3 exponent bits.
  EXPECT_THROW(fixed::make_datapath(fixed::DatapathKind::kLns,
                                    fixed::FixedFormat(2, 1)),
               InvalidArgumentError);
  EXPECT_NO_THROW(fixed::make_datapath(fixed::DatapathKind::kLns,
                                       fixed::FixedFormat(2, 2)));
}

TEST(DatapathIdentityTest, TagsAndParsingRoundTrip) {
  EXPECT_STREQ(fixed::to_string(fixed::DatapathKind::kTwosComplement),
               "fixed");
  EXPECT_STREQ(fixed::to_string(fixed::DatapathKind::kLns), "lns");
  fixed::DatapathKind kind;
  ASSERT_TRUE(fixed::parse_datapath_kind("fixed", &kind));
  EXPECT_EQ(kind, fixed::DatapathKind::kTwosComplement);
  ASSERT_TRUE(fixed::parse_datapath_kind("twos-complement", &kind));
  EXPECT_EQ(kind, fixed::DatapathKind::kTwosComplement);
  ASSERT_TRUE(fixed::parse_datapath_kind("lns", &kind));
  EXPECT_EQ(kind, fixed::DatapathKind::kLns);
  EXPECT_FALSE(fixed::parse_datapath_kind("float", &kind));
  EXPECT_FALSE(fixed::parse_datapath_kind("", &kind));
}

TEST(DatapathIdentityTest, LnsDatapathDotIsLnsDotRaw) {
  support::Rng rng(103);
  const fixed::FixedFormat fmt(2, 4);
  const fixed::LnsFormat lns = fixed::LnsFormat::matched(fmt);
  for (const auto acc : {fixed::AccumulatorMode::kWide,
                         fixed::AccumulatorMode::kNarrow}) {
    const auto dp = fixed::make_datapath(fixed::DatapathKind::kLns, fmt,
                                         fixed::RoundingMode::kNearestEven,
                                         acc);
    for (int trial = 0; trial < 32; ++trial) {
      std::vector<std::int64_t> w(7), x(7);
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = fixed::lns_quantize(lns, rng.uniform(-2.0, 2.0));
        x[i] = fixed::lns_quantize(lns, rng.uniform(-2.0, 2.0));
      }
      fixed::DotDiagnostics diag;
      EXPECT_EQ(dp->dot(w.data(), x.data(), w.size(), &diag),
                fixed::lns_dot_raw(lns, w.data(), x.data(), w.size(), acc));
      EXPECT_EQ(dp->quantize(0.5), fixed::lns_quantize(lns, 0.5));
      EXPECT_EQ(dp->ge(w[0], x[0]), fixed::lns_ge(lns, w[0], x[0]));
    }
  }
}

TEST(DatapathIdentityTest, ClassifyBatchMatchesPerSampleOnBothBackends) {
  // Batch classification goes through BatchScorer on either datapath
  // (vector tiles on two's complement, Datapath::dot rows on LNS); both
  // must agree with per-sample classification, inputs past the format's
  // range included.
  support::Rng rng(104);
  const fixed::FixedFormat fmt(2, 5);
  const std::size_t dim = 6;
  for (const auto kind : {fixed::DatapathKind::kTwosComplement,
                          fixed::DatapathKind::kLns}) {
    Vector weights(dim);
    for (std::size_t m = 0; m < dim; ++m) weights[m] = rng.uniform(-2, 2);
    const core::FixedClassifier clf(fmt, weights, rng.uniform(-1, 1),
                                    fixed::RoundingMode::kNearestEven,
                                    fixed::AccumulatorMode::kWide, kind);
    const runtime::BatchScorer scorer(clf);
    const auto xs = random_samples(128, dim, 3.0 * fmt.max_value(), rng);
    const auto scored = scorer.score(xs);
    ASSERT_EQ(scored.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(scored[i].label, clf.classify(xs[i]))
          << fixed::to_string(kind) << " sample " << i;
      EXPECT_EQ(scored[i].projection_raw, clf.project_raw(xs[i]))
          << fixed::to_string(kind) << " sample " << i;
    }
  }
}

TEST(DatapathIdentityTest, BatchScorerReplaysLnsClassifierBitForBit) {
  support::Rng rng(105);
  const fixed::FixedFormat fmt(2, 4);
  const std::size_t dim = 5;
  Vector weights(dim);
  for (std::size_t m = 0; m < dim; ++m) weights[m] = rng.uniform(-2, 2);
  const core::FixedClassifier clf(fmt, weights, 0.125,
                                  fixed::RoundingMode::kNearestEven,
                                  fixed::AccumulatorMode::kWide,
                                  fixed::DatapathKind::kLns);
  const runtime::BatchScorer scorer(clf);
  EXPECT_EQ(scorer.datapath_kind(), fixed::DatapathKind::kLns);
  const auto xs = random_samples(96, dim, 3.0, rng);
  const auto scored = scorer.score(xs);
  ASSERT_EQ(scored.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(scored[i].label, clf.classify(xs[i])) << "sample " << i;
    EXPECT_EQ(scored[i].projection_raw, clf.project_raw(xs[i]))
        << "sample " << i;
  }
}

TEST(DatapathIdentityTest, LnsScoringIsDeterministicAtAnyThreadCount) {
  // The determinism stake in the ground: one shared immutable LNS
  // classifier, scored concurrently, yields the exact words of the
  // serial loop at every pool width (lns_dot_raw is a strictly
  // sequential per-sample recurrence; threads only partition samples).
  support::Rng rng(106);
  const fixed::FixedFormat fmt(3, 5);
  const std::size_t dim = 8;
  Vector weights(dim);
  for (std::size_t m = 0; m < dim; ++m) weights[m] = rng.uniform(-2, 2);
  const core::FixedClassifier clf(fmt, weights, -0.5,
                                  fixed::RoundingMode::kNearestEven,
                                  fixed::AccumulatorMode::kWide,
                                  fixed::DatapathKind::kLns);
  const auto xs = random_samples(256, dim, 4.0, rng);
  std::vector<std::int64_t> serial(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    serial[i] = clf.project_raw(xs[i]);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const sched::Executor executor = sched::Executor::pooled(threads);
    const std::vector<std::int64_t> parallel = sched::parallel_map(
        executor, xs.size(),
        [&](std::size_t i) { return clf.project_raw(xs[i]); });
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace ldafp
