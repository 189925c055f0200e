#include "runtime/batch_scorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/error.h"
#include "support/rng.h"
#include "support/wire.h"

namespace ldafp::runtime {
namespace {

using linalg::Vector;

/// Random grid-representable classifier in `fmt`.
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

TEST(BatchScorerTest, BitExactAgainstPerSampleClassifyAcrossConfigs) {
  support::Rng rng(42);
  const std::vector<fixed::FixedFormat> formats = {
      {2, 2}, {2, 4}, {3, 5}, {2, 10}, {4, 12}};
  const std::vector<fixed::RoundingMode> modes = {
      fixed::RoundingMode::kNearestEven, fixed::RoundingMode::kFloor,
      fixed::RoundingMode::kTowardZero};
  for (const auto& fmt : formats) {
    for (const auto mode : modes) {
      for (const auto acc : {fixed::AccumulatorMode::kWide,
                             fixed::AccumulatorMode::kNarrow}) {
        const auto clf = random_classifier(fmt, 7, rng, mode, acc);
        const BatchScorer scorer(clf);
        // Sample range past the representable range so saturation paths
        // are exercised too.
        const auto xs =
            random_samples(64, 7, 2.0 * fmt.max_value() + 1.0, rng);
        const auto scored = scorer.score(xs);
        ASSERT_EQ(scored.size(), xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
          EXPECT_EQ(scored[i].label, clf.classify(xs[i]))
              << fmt.to_string() << " sample " << i;
          EXPECT_EQ(scored[i].projection_raw, clf.project_raw(xs[i]))
              << fmt.to_string() << " sample " << i;
        }
      }
    }
  }
}

TEST(BatchScorerTest, MatchesClassifyBatchConvenienceOverload) {
  support::Rng rng(7);
  const fixed::FixedFormat fmt(2, 6);
  const auto clf = random_classifier(fmt, 12, rng,
                                     fixed::RoundingMode::kNearestEven,
                                     fixed::AccumulatorMode::kWide);
  const BatchScorer scorer(clf);
  const auto xs = random_samples(50, 12, 3.0, rng);
  const auto scored = scorer.score(xs);
  ASSERT_EQ(scored.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(scored[i].label, clf.classify(xs[i])) << "sample " << i;
  }
}

TEST(BatchScorerTest, PackLayoutIsTiledFeatureMajorQuantized) {
  const fixed::FixedFormat fmt(2, 2);
  const core::FixedClassifier clf(fmt, Vector{0.25, -0.5}, 0.0);
  const BatchScorer scorer(clf);
  const auto batch = scorer.pack({Vector{0.25, 1.0}, Vector{-0.75, 0.5}});
  ASSERT_EQ(batch.rows, 2u);
  ASSERT_EQ(batch.dim, 2u);
  // One zero-padded AoSoA tile: dim * kLane words, feature-major.
  ASSERT_EQ(batch.words.size(), 2u * PackedBatch::kLane);
  // Q2.2: 0.25 -> raw 1, 1.0 -> raw 4, -0.75 -> raw -3, 0.5 -> raw 2.
  EXPECT_EQ(batch.word(0, 0), 1);
  EXPECT_EQ(batch.word(0, 1), 4);
  EXPECT_EQ(batch.word(1, 0), -3);
  EXPECT_EQ(batch.word(1, 1), 2);
  // Feature m of consecutive samples is contiguous (lane order), the
  // layout the vector kernels load directly.
  EXPECT_EQ(batch.words[0], 1);
  EXPECT_EQ(batch.words[1], -3);
  EXPECT_EQ(batch.words[PackedBatch::kLane], 4);
  EXPECT_EQ(batch.words[PackedBatch::kLane + 1], 2);
  // Padding lanes of the partial tile are zero.
  for (std::size_t lane = 2; lane < PackedBatch::kLane; ++lane) {
    EXPECT_EQ(batch.words[lane], 0);
    EXPECT_EQ(batch.words[PackedBatch::kLane + lane], 0);
  }
}

TEST(BatchScorerTest, PackIntoAppends) {
  const fixed::FixedFormat fmt(2, 2);
  const core::FixedClassifier clf(fmt, Vector{0.25, -0.5}, 0.0);
  const BatchScorer scorer(clf);
  PackedBatch batch;
  const std::vector<Vector> a = {Vector{0.0, 0.0}};
  const std::vector<Vector> b = {Vector{1.0, 1.0}, Vector{0.5, 0.5}};
  scorer.pack_into(batch, a.data(), a.size());
  scorer.pack_into(batch, b.data(), b.size());
  EXPECT_EQ(batch.rows, 3u);
  EXPECT_EQ(batch.words.size(), 2u * PackedBatch::kLane);
  EXPECT_EQ(batch.word(1, 0), 4);   // 1.0 -> raw 4
  EXPECT_EQ(batch.word(2, 1), 2);   // 0.5 -> raw 2
  batch.clear();
  EXPECT_EQ(batch.rows, 0u);
  EXPECT_TRUE(batch.words.empty());
}

TEST(BatchScorerTest, PackIntoAcrossTileBoundaryScoresEveryRow) {
  support::Rng rng(21);
  const fixed::FixedFormat fmt(3, 5);
  const auto clf = random_classifier(fmt, 5, rng,
                                     fixed::RoundingMode::kNearestEven,
                                     fixed::AccumulatorMode::kWide);
  const BatchScorer scorer(clf);
  // Append in chunks that straddle tile boundaries: 3 + 7 + 11 = 21 rows.
  const auto xs = random_samples(21, 5, 3.0, rng);
  PackedBatch batch;
  scorer.pack_into(batch, xs.data(), 3);
  scorer.pack_into(batch, xs.data() + 3, 7);
  scorer.pack_into(batch, xs.data() + 10, 11);
  ASSERT_EQ(batch.rows, 21u);
  std::vector<ScoreResult> scored(batch.rows);
  scorer.score(batch, scored.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(scored[i].projection_raw, clf.project_raw(xs[i])) << i;
  }
}

// Regression (pre-fix: pack_into overwrote out.dim unconditionally, so
// appending rows packed at a different dim silently reinterpreted every
// earlier row under the new stride).
TEST(BatchScorerTest, PackIntoRejectsAppendAtDifferentDim) {
  const fixed::FixedFormat fmt(2, 2);
  const core::FixedClassifier clf2(fmt, Vector{0.25, -0.5}, 0.0);
  const core::FixedClassifier clf3(fmt, Vector{0.25, -0.5, 0.75}, 0.0);
  const BatchScorer scorer2(clf2);
  const BatchScorer scorer3(clf3);
  PackedBatch batch;
  const std::vector<Vector> a = {Vector{0.25, 0.5}};
  const std::vector<Vector> b = {Vector{0.25, 0.5, 1.0}};
  scorer2.pack_into(batch, a.data(), a.size());
  EXPECT_THROW(scorer3.pack_into(batch, b.data(), b.size()),
               ldafp::InvalidArgumentError);
  // The failed append must not have corrupted the existing rows.
  EXPECT_EQ(batch.rows, 1u);
  EXPECT_EQ(batch.dim, 2u);
  // After clear() the batch re-latches to the new scorer's dim.
  batch.clear();
  scorer3.pack_into(batch, b.data(), b.size());
  EXPECT_EQ(batch.dim, 3u);
  EXPECT_EQ(batch.rows, 1u);
}

TEST(BatchScorerTest, CachedQuantizerMatchesFormatQuantizeSaturate) {
  support::Rng rng(33);
  for (const auto mode :
       {fixed::RoundingMode::kNearestEven, fixed::RoundingMode::kNearestAway,
        fixed::RoundingMode::kTowardZero, fixed::RoundingMode::kFloor}) {
    const fixed::FixedFormat fmt(3, 7);
    Vector w(1);
    w[0] = 0.5;
    const core::FixedClassifier clf(fmt, w, 0.0, mode);
    const BatchScorer scorer(clf);
    std::vector<Vector> xs;
    for (int i = 0; i < 2000; ++i) {
      Vector x(1);
      // Cover in-range values, exact grid points, half-way ties, and
      // saturation on both sides.
      switch (i % 4) {
        case 0: x[0] = rng.uniform(-6.0, 6.0); break;
        case 1: x[0] = fmt.to_real(rng.uniform_int(fmt.raw_min(),
                                                   fmt.raw_max())); break;
        case 2: x[0] = fmt.to_real(rng.uniform_int(fmt.raw_min(),
                                                   fmt.raw_max())) +
                       fmt.resolution() / 2.0; break;
        default: x[0] = rng.uniform(-20.0, 20.0); break;
      }
      xs.push_back(std::move(x));
    }
    const auto batch = scorer.pack(xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(batch.word(i, 0), fmt.quantize_saturate(xs[i][0], mode))
          << "mode " << fixed::to_string(mode) << " value " << xs[i][0];
    }
  }
}

TEST(BatchScorerTest, DimensionMismatchThrows) {
  const fixed::FixedFormat fmt(2, 2);
  const core::FixedClassifier clf(fmt, Vector{0.25, -0.5}, 0.0);
  const BatchScorer scorer(clf);
  EXPECT_THROW(scorer.score({Vector{1.0}}), ldafp::InvalidArgumentError);
}

/// Little-endian f64 wire payload for `xs` (the protocol's request
/// feature layout: row-major, 8 bytes per value).
std::vector<std::uint8_t> wire_payload(const std::vector<Vector>& xs) {
  std::vector<std::uint8_t> payload;
  for (const Vector& x : xs) {
    for (std::size_t m = 0; m < x.size(); ++m) {
      support::put_f64le(payload, x[m]);
    }
  }
  return payload;
}

// The zero-copy ingest contract: quantizing straight from the wire
// payload produces the exact words (and therefore the exact scores)
// that the decode-to-doubles + pack_into path produces, across every
// format × rounding mode combination, saturation included.
TEST(BatchScorerTest, PackFromWireBitIdenticalToPackIntoAcrossConfigs) {
  support::Rng rng(55);
  const std::vector<fixed::FixedFormat> formats = {
      {2, 2}, {2, 4}, {3, 5}, {2, 10}, {4, 12}};
  const std::vector<fixed::RoundingMode> modes = {
      fixed::RoundingMode::kNearestEven, fixed::RoundingMode::kNearestAway,
      fixed::RoundingMode::kTowardZero, fixed::RoundingMode::kFloor};
  for (const auto& fmt : formats) {
    for (const auto mode : modes) {
      const auto clf = random_classifier(fmt, 6, rng, mode,
                                         fixed::AccumulatorMode::kWide);
      const BatchScorer scorer(clf);
      // Range past representable so the saturating path quantizes too.
      const auto xs = random_samples(37, 6, 2.0 * fmt.max_value() + 1.0, rng);
      const auto payload = wire_payload(xs);

      PackedBatch reference;
      scorer.pack_into(reference, xs.data(), xs.size());
      PackedBatch wire;
      ASSERT_TRUE(scorer.pack_from_f64_le(wire, payload.data(), xs.size()))
          << fmt.to_string();
      ASSERT_EQ(wire.rows, reference.rows) << fmt.to_string();
      ASSERT_EQ(wire.dim, reference.dim) << fmt.to_string();
      ASSERT_EQ(wire.words, reference.words)
          << fmt.to_string() << " mode " << fixed::to_string(mode);
    }
  }
}

TEST(BatchScorerTest, PackFromWireAppendsAfterExistingRows) {
  support::Rng rng(57);
  const fixed::FixedFormat fmt(3, 5);
  const auto clf = random_classifier(fmt, 4, rng,
                                     fixed::RoundingMode::kNearestEven,
                                     fixed::AccumulatorMode::kWide);
  const BatchScorer scorer(clf);
  const auto xs = random_samples(11, 4, 3.0, rng);
  PackedBatch reference;
  scorer.pack_into(reference, xs.data(), xs.size());

  // Wire-pack in chunks that straddle a tile boundary.
  PackedBatch wire;
  const auto payload = wire_payload(xs);
  ASSERT_TRUE(scorer.pack_from_f64_le(wire, payload.data(), 3));
  ASSERT_TRUE(scorer.pack_from_f64_le(wire, payload.data() + 3 * 4 * 8, 8));
  EXPECT_EQ(wire.words, reference.words);
}

// NaN features return false (reject-at-ingest) instead of feeding the
// scoring datapath an unquantizable value.
TEST(BatchScorerTest, PackFromWireRejectsNaN) {
  const fixed::FixedFormat fmt(2, 2);
  const core::FixedClassifier clf(fmt, Vector{0.25, -0.5}, 0.0);
  const BatchScorer scorer(clf);
  std::vector<std::uint8_t> payload;
  support::put_f64le(payload, 0.5);
  support::put_f64le(payload, std::numeric_limits<double>::quiet_NaN());
  PackedBatch batch;
  EXPECT_FALSE(scorer.pack_from_f64_le(batch, payload.data(), 1));
  // Infinities are representable through saturation, not an error.
  payload.clear();
  support::put_f64le(payload, std::numeric_limits<double>::infinity());
  support::put_f64le(payload, -std::numeric_limits<double>::infinity());
  batch.clear();
  ASSERT_TRUE(scorer.pack_from_f64_le(batch, payload.data(), 1));
  EXPECT_EQ(batch.word(0, 0), fmt.raw_max());
  EXPECT_EQ(batch.word(0, 1), fmt.raw_min());
}

// A NaN mid-payload stops the pack at its row and leaves the batch
// exactly as if only the earlier rows had been packed — the offending
// row's partial words are dropped, whether it opened a new tile or sat
// mid-tile — so a caller that keeps the batch sees no stray words.
TEST(BatchScorerTest, PackFromWireNaNKeepsOnlyEarlierRows) {
  support::Rng rng(61);
  const fixed::FixedFormat fmt(3, 5);
  const auto clf = random_classifier(fmt, 4, rng,
                                     fixed::RoundingMode::kNearestEven,
                                     fixed::AccumulatorMode::kWide);
  const BatchScorer scorer(clf);
  const auto xs = random_samples(19, 4, 3.0, rng);
  for (const std::size_t bad_row : {std::size_t{0}, std::size_t{5},
                                    std::size_t{8}, std::size_t{18}}) {
    auto payload = wire_payload(xs);
    // Poison the last feature, so the row's other words were written.
    std::vector<std::uint8_t> nan;
    support::put_f64le(nan, std::numeric_limits<double>::quiet_NaN());
    std::copy(nan.begin(), nan.end(),
              payload.begin() +
                  static_cast<std::ptrdiff_t>((bad_row * 4 + 3) * 8));
    PackedBatch wire;
    EXPECT_FALSE(scorer.pack_from_f64_le(wire, payload.data(), xs.size()));
    PackedBatch reference;
    scorer.pack_into(reference, xs.data(), bad_row);
    EXPECT_EQ(wire.rows, bad_row);
    EXPECT_EQ(wire.words, reference.words) << "bad row " << bad_row;
  }
}

}  // namespace
}  // namespace ldafp::runtime
