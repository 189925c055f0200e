// obs::Histogram: the log-linear bucket layout, quantile error bounds,
// the declared unit, and lock-free concurrent recording (the `obs` label
// runs this under ThreadSanitizer and UndefinedBehaviorSanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "support/rng.h"

namespace ldafp::obs {
namespace {

constexpr int kOverflow = Histogram::kBuckets - 1;

/// Bucket index of one recorded value, read back off a fresh histogram.
int bucket_of(double value) {
  MetricsRegistry registry;
  registry.histogram("h").record(value);
  const Histogram::Snapshot snap = registry.histogram("h").snapshot();
  const auto it = std::find(snap.counts.begin(), snap.counts.end(), 1u);
  return static_cast<int>(it - snap.counts.begin());
}

/// First bucket of the octave [2^e, 2^(e+1)).
int octave_start(int e) {
  return 1 + (e - Histogram::kMinExponent) * Histogram::kSubBuckets;
}

Histogram::Snapshot snapshot_of(const std::vector<double>& values) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h");
  for (const double v : values) h.record(v);
  return h.snapshot();
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  const Histogram::Snapshot snap = snapshot_of({});
  EXPECT_EQ(snap.total_count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 0.0);
}

TEST(HistogramTest, CountSumMaxAndQuantiles) {
  // 90 fast records at 10 us, 10 slow at 10 ms.
  std::vector<double> values(90, 10e-6);
  values.insert(values.end(), 10, 10e-3);
  const Histogram::Snapshot snap = snapshot_of(values);
  EXPECT_EQ(snap.total_count, 100u);
  EXPECT_NEAR(snap.sum_seconds, 90 * 10e-6 + 10 * 10e-3, 1e-9);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 10e-3);
  EXPECT_NEAR(snap.mean(), (90 * 10e-6 + 10 * 10e-3) / 100, 1e-12);
  // p50/p90 land in the 10 us bucket, p99 in the 10 ms bucket; a bucket
  // edge overshoots its values by at most one sub-bucket.
  EXPECT_GT(snap.quantile(0.5), 10e-6);
  EXPECT_LE(snap.quantile(0.5), 10e-6 * (1.0 + 1.0 / Histogram::kSubBuckets));
  EXPECT_DOUBLE_EQ(snap.quantile(0.9), snap.quantile(0.5));
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 10e-3);  // capped at the max
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), snap.max_seconds);
}

TEST(HistogramTest, PowersOfTwoAndRangeEndsLandInTheRightBucket) {
  for (int e = Histogram::kMinExponent; e < Histogram::kMaxExponent; ++e) {
    const double edge = std::ldexp(1.0, e);
    EXPECT_EQ(bucket_of(edge), octave_start(e)) << "2^" << e;
    EXPECT_EQ(bucket_of(std::nextafter(edge, 0.0)), octave_start(e) - 1)
        << "just below 2^" << e;
    // Linear sub-buckets: 1.5 * 2^e is half way through the octave.
    EXPECT_EQ(bucket_of(1.5 * edge),
              octave_start(e) + Histogram::kSubBuckets / 2);
  }
  // Everything below the range shares the underflow bucket.
  EXPECT_EQ(bucket_of(0.0), 0);
  EXPECT_EQ(bucket_of(-0.0), 0);
  EXPECT_EQ(bucket_of(-1.0), 0);
  EXPECT_EQ(bucket_of(-std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(bucket_of(1e-12), 0);
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::denorm_min()), 0);
  // 10 ns and 100 s are inside the range.
  EXPECT_GT(bucket_of(10e-9), 0);
  EXPECT_LT(bucket_of(100.0), kOverflow);
  // Everything at or above 2^kMaxExponent shares the overflow bucket.
  const double top = std::ldexp(1.0, Histogram::kMaxExponent);
  EXPECT_EQ(bucket_of(std::nextafter(top, 0.0)), kOverflow - 1);
  EXPECT_EQ(bucket_of(top), kOverflow);
  EXPECT_EQ(bucket_of(1e6), kOverflow);
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::max()), kOverflow);
  EXPECT_EQ(bucket_of(std::numeric_limits<double>::infinity()), kOverflow);
}

TEST(HistogramTest, NonPositiveValuesCountButLeaveSumAndMax) {
  const Histogram::Snapshot snap = snapshot_of({0.0, -2.0, -1e-3});
  EXPECT_EQ(snap.total_count, 3u);
  EXPECT_EQ(snap.counts[0], 3u);
  EXPECT_DOUBLE_EQ(snap.sum_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
}

TEST(HistogramTest, OverflowQuantilesReportTheMax) {
  const Histogram::Snapshot snap = snapshot_of({1e-3, 500.0, 900.0});
  EXPECT_EQ(snap.counts[kOverflow], 2u);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 900.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.9), 900.0);
  EXPECT_NEAR(snap.sum_seconds, 1400.001, 1e-9);
}

// Seeded log-normal samples over the whole seconds range: every reported
// quantile brackets the exact sample quantile from above by at most one
// sub-bucket (1/32 = 3.125% < 3.2%), and never exceeds the max.
TEST(HistogramTest, QuantilesWithinOneSubBucketOfExactSampleQuantiles) {
  support::Rng rng(2014);
  std::vector<double> values(20000);
  for (double& v : values) {
    v = std::clamp(std::exp(rng.gaussian(std::log(1e-3), 4.0)), 1e-8, 1e2);
  }
  const Histogram::Snapshot snap = snapshot_of(values);
  std::sort(values.begin(), values.end());
  ASSERT_DOUBLE_EQ(values.front(), 1e-8);  // the samples span the range
  ASSERT_DOUBLE_EQ(values.back(), 1e2);
  EXPECT_DOUBLE_EQ(snap.max_seconds, values.back());
  const double n = static_cast<double>(values.size());
  for (const double q : {0.0, 1e-4, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                         0.99, 0.999, 0.9999, 1.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * n)));
    const double exact = values[rank - 1];
    const double reported = snap.quantile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact * 1.032) << "q=" << q;
    EXPECT_LE(reported, snap.max_seconds) << "q=" << q;
  }
}

// Two workloads whose medians differ by 10% must read differently — the
// resolution a before/after latency comparison needs.  Both share one
// slow tail, so the max cannot tell them apart; only the buckets can.
TEST(HistogramTest, TenPercentMedianShiftChangesP50) {
  support::Rng rng(15);
  std::vector<double> base(1001);
  for (double& v : base) v = 1.2e-3 * std::exp(rng.gaussian(0.0, 0.05));
  std::vector<double> slower = base;
  for (double& v : slower) v *= 1.1;
  for (std::vector<double>* set : {&base, &slower}) {
    set->insert(set->end(), 5, 0.1);
  }
  const double p50 = snapshot_of(base).quantile(0.5);
  const double p50_slower = snapshot_of(slower).quantile(0.5);
  EXPECT_NE(p50, p50_slower);
  EXPECT_GT(p50_slower / p50, 1.1 / (1.0 + 1.0 / Histogram::kSubBuckets));
}

TEST(HistogramTest, UnitIsFixedAtRegistration) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.histogram("latency").unit(), Histogram::Unit::kSeconds);
  Histogram& fill = registry.histogram("fill", {}, Histogram::Unit::kRatio);
  fill.record(0.5);
  EXPECT_EQ(&fill, &registry.histogram("fill", {}, Histogram::Unit::kRatio));
  EXPECT_THROW(registry.histogram("fill"), std::invalid_argument);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.find_histogram("fill"), nullptr);
  EXPECT_EQ(snap.find_histogram("fill")->hist.unit, Histogram::Unit::kRatio);
  EXPECT_DOUBLE_EQ(snap.find_histogram("fill")->hist.mean(), 0.5);
}

TEST(HistogramTest, ConcurrentRecordsAreAllCounted) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(1e-6 * static_cast<double>(1 + (t + i) % 1000));
      }
    });
  }
  for (auto& th : threads) th.join();
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.total_count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(snap.max_seconds, 1e-6 * 1000);
}

}  // namespace
}  // namespace ldafp::obs
