#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/sink.h"
#include "runtime/registry.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::runtime {
namespace {

using linalg::Vector;

core::FixedClassifier random_classifier(std::size_t dim, support::Rng& rng) {
  const fixed::FixedFormat fmt(3, 5);
  Vector w(dim);
  for (std::size_t m = 0; m < dim; ++m) {
    w[m] = fmt.to_real(rng.uniform_int(fmt.raw_min(), fmt.raw_max()));
  }
  return core::FixedClassifier(fmt, w, 0.25);
}

std::vector<Vector> random_samples(std::size_t n, std::size_t dim,
                                   support::Rng& rng) {
  std::vector<Vector> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector x(dim);
    for (std::size_t m = 0; m < dim; ++m) x[m] = rng.uniform(-4.0, 4.0);
    xs.push_back(std::move(x));
  }
  return xs;
}

TEST(InferenceEngineTest, SingleRequestMatchesSequentialClassifier) {
  support::Rng rng(1);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(8, rng));
  InferenceEngine engine({.workers = 2});
  const auto xs = random_samples(10, 8, rng);
  auto sub = engine.submit(model, xs);
  ASSERT_EQ(sub.status, SubmitStatus::kAccepted);
  const auto results = sub.result.get();
  ASSERT_EQ(results.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(results[i].label, model->classifier.classify(xs[i]));
    EXPECT_EQ(results[i].projection_raw,
              model->classifier.project_raw(xs[i]));
  }
}

// The headline determinism property: N producer threads pushing M
// samples each through the pooled, micro-batching engine produce
// bit-for-bit the labels and projection words of a sequential
// FixedClassifier::classify loop over the same samples.
TEST(InferenceEngineTest, ConcurrentTrafficIsBitExactAgainstSequential) {
  support::Rng rng(99);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(16, rng));
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kSamplesPerProducer = 300;

  // Pre-draw every producer's traffic and the sequential reference.
  std::vector<std::vector<Vector>> traffic;
  std::vector<std::vector<core::Label>> expected_labels;
  std::vector<std::vector<std::int64_t>> expected_raw;
  for (std::size_t p = 0; p < kProducers; ++p) {
    traffic.push_back(random_samples(kSamplesPerProducer, 16, rng));
    std::vector<core::Label> labels;
    std::vector<std::int64_t> raws;
    for (const Vector& x : traffic.back()) {
      labels.push_back(model->classifier.classify(x));
      raws.push_back(model->classifier.project_raw(x));
    }
    expected_labels.push_back(std::move(labels));
    expected_raw.push_back(std::move(raws));
  }

  InferenceEngine engine({.workers = 3, .queue_capacity = 64,
                          .max_batch = 16, .max_wait_seconds = 200e-6});
  std::vector<std::vector<std::future<std::vector<ScoreResult>>>> futures(
      kProducers);
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const Vector& x : traffic[p]) {
        // Backpressure: retry until admitted, counting rejections.
        while (true) {
          auto sub = engine.submit(model, x);
          if (sub.status == SubmitStatus::kAccepted) {
            futures[p].push_back(std::move(sub.result));
            break;
          }
          ASSERT_EQ(sub.status, SubmitStatus::kQueueFull);
          rejected.fetch_add(1);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t p = 0; p < kProducers; ++p) {
    ASSERT_EQ(futures[p].size(), kSamplesPerProducer);
    for (std::size_t i = 0; i < kSamplesPerProducer; ++i) {
      const auto results = futures[p][i].get();
      ASSERT_EQ(results.size(), 1u);
      EXPECT_EQ(results[0].label, expected_labels[p][i]);
      EXPECT_EQ(results[0].projection_raw, expected_raw[p][i]);
    }
  }
  engine.shutdown();
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.requests_completed.load(),
            kProducers * kSamplesPerProducer);
  EXPECT_EQ(stats.samples_scored.load(), kProducers * kSamplesPerProducer);
  EXPECT_EQ(stats.requests_rejected.load(), rejected.load());
  EXPECT_GE(stats.batches_scored.load(), 1u);
  EXPECT_LE(stats.batches_scored.load(), stats.samples_scored.load());
}

TEST(InferenceEngineTest, QueueFullReturnsDocumentedRejectionStatus) {
  support::Rng rng(3);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  // The lone worker is busy scoring one oversized request (milliseconds
  // of work) while single-sample submissions arrive microseconds apart,
  // so the three-slot queue fills.
  InferenceEngine engine({.workers = 1, .queue_capacity = 3});
  auto big = engine.submit(model, random_samples(100000, 4, rng));
  ASSERT_EQ(big.status, SubmitStatus::kAccepted);
  const Vector x{0.5, -0.5, 1.0, 0.0};
  std::vector<Submission> held;
  Submission overflow;
  for (int i = 0; i < 1000; ++i) {
    overflow = engine.submit(model, x);
    if (overflow.status != SubmitStatus::kAccepted) break;
    held.push_back(std::move(overflow));
  }
  EXPECT_EQ(overflow.status, SubmitStatus::kQueueFull);
  EXPECT_FALSE(overflow.result.valid());
  EXPECT_EQ(engine.stats().requests_rejected.load(), 1u);
  EXPECT_EQ(engine.stats().queue_depth_high_water.load(), 3u);
  EXPECT_DOUBLE_EQ(engine.stats().queue_capacity.load(), 3.0);

  // The backlog drains and fulfills every admitted promise.
  EXPECT_EQ(big.result.get().size(), 100000u);
  for (auto& sub : held) {
    const auto results = sub.result.get();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].label, model->classifier.classify(x));
  }
}

TEST(InferenceEngineTest, ShutdownDrainsInFlightRequests) {
  support::Rng rng(5);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(6, rng));
  std::vector<std::future<std::vector<ScoreResult>>> futures;
  {
    // shutdown() right behind the submissions: whatever is still
    // queued when it begins, the drain itself must fulfill.
    InferenceEngine engine({.workers = 2, .queue_capacity = 64});
    const auto xs = random_samples(32, 6, rng);
    for (const Vector& x : xs) {
      auto sub = engine.submit(model, x);
      ASSERT_EQ(sub.status, SubmitStatus::kAccepted);
      futures.push_back(std::move(sub.result));
    }
    engine.shutdown();
    // Post-shutdown submissions are refused with the documented status.
    EXPECT_EQ(engine.submit(model, xs[0]).status,
              SubmitStatus::kShuttingDown);
  }  // destructor after explicit shutdown must be safe (idempotent)
  for (auto& f : futures) {
    const auto results = f.get();  // would throw broken_promise if dropped
    EXPECT_EQ(results.size(), 1u);
  }
}

// The serve path's synchronous call: bit-identical to the adapter (and
// to FixedClassifier), recording the series a one-request worker batch
// records, with submit's checks and shutdown answer.
TEST(InferenceEngineTest, SynchronousScoreMatchesClassifierAndRecordsStats) {
  support::Rng rng(6);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(8, rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink{&metrics, nullptr};
  InferenceEngine engine({.workers = 1, .max_batch = 16, .sink = &sink});
  const auto xs = random_samples(10, 8, rng);
  const PackedBatch batch = model->scorer.pack(xs);
  std::vector<ScoreResult> results;
  ASSERT_EQ(engine.score(model, batch, results), SubmitStatus::kAccepted);
  ASSERT_EQ(results.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(results[i].label, model->classifier.classify(xs[i]));
    EXPECT_EQ(results[i].projection_raw,
              model->classifier.project_raw(xs[i]));
  }

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_value("runtime.requests_submitted"), 1u);
  EXPECT_EQ(snap.counter_value("runtime.requests_completed"), 1u);
  EXPECT_EQ(snap.counter_value("runtime.batches_scored"), 1u);
  EXPECT_EQ(snap.counter_value("runtime.samples_scored"), 10u);
  for (const char* name : {"runtime.queue_wait", "runtime.batch_execute",
                           "runtime.request_total",
                           "runtime.batch_occupancy"}) {
    const auto* h = snap.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->hist.total_count, 1u) << name;
  }
  EXPECT_DOUBLE_EQ(
      snap.find_histogram("runtime.batch_occupancy")->hist.mean(),
      10.0 / 16.0);

  // submit's shape checks, then the shutdown answer; neither touches
  // the caller's buffer.
  const auto other = registry.install("n", random_classifier(4, rng));
  EXPECT_EQ(engine.score(nullptr, batch, results),
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(engine.score(other, batch, results),
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(engine.score(model, PackedBatch{}, results),
            SubmitStatus::kInvalidRequest);
  engine.shutdown();
  EXPECT_EQ(engine.score(model, batch, results),
            SubmitStatus::kShuttingDown);
  EXPECT_EQ(results.size(), xs.size());
  EXPECT_EQ(metrics.snapshot().counter_value("runtime.requests_submitted"),
            1u);
}

TEST(InferenceEngineTest, RejectsInvalidRequests) {
  support::Rng rng(8);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  InferenceEngine engine({.workers = 1});
  EXPECT_EQ(engine.submit(nullptr, Vector{1.0}).status,
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(engine.submit(model, std::vector<Vector>{}).status,
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(engine.submit(model, Vector{1.0}).status,  // wrong dimension
            SubmitStatus::kInvalidRequest);
}

TEST(InferenceEngineTest, HotSwapMidTrafficServesBothSnapshotsExactly) {
  support::Rng rng(11);
  ModelRegistry registry;
  const auto v1 = registry.install("m", random_classifier(8, rng));
  InferenceEngine engine({.workers = 2, .max_batch = 8});
  const auto xs = random_samples(40, 8, rng);
  std::vector<std::pair<ModelHandle, Submission>> in_flight;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i == xs.size() / 2) {
      registry.install("m", random_classifier(8, rng));  // hot swap
    }
    auto handle = registry.get("m");
    auto sub = engine.submit(handle, xs[i]);
    ASSERT_EQ(sub.status, SubmitStatus::kAccepted);
    in_flight.emplace_back(std::move(handle), std::move(sub));
  }
  for (std::size_t i = 0; i < in_flight.size(); ++i) {
    const auto results = in_flight[i].second.result.get();
    ASSERT_EQ(results.size(), 1u);
    // Each result matches the snapshot the request was scored against.
    EXPECT_EQ(results[0].label,
              in_flight[i].first->classifier.classify(xs[i]));
  }
}

TEST(InferenceEngineTest, StatsReportRenders) {
  support::Rng rng(13);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  InferenceEngine engine({.workers = 1});
  auto sub = engine.submit(model, random_samples(4, 4, rng));
  ASSERT_EQ(sub.status, SubmitStatus::kAccepted);
  (void)sub.result.get();
  // obs::to_table renders the stats snapshot with the metric identity
  // names as row keys.
  const std::string report = obs::to_table(engine.stats().snapshot());
  EXPECT_NE(report.find("runtime.requests_submitted"), std::string::npos);
  EXPECT_NE(report.find("runtime.queue_wait"), std::string::npos);
  EXPECT_NE(report.find("runtime.batch_execute"), std::string::npos);
  EXPECT_NE(report.find("runtime.request_total"), std::string::npos);

  // The uniform path: the same numbers through the snapshot struct.
  const obs::MetricsSnapshot snap = engine.stats().snapshot();
  EXPECT_EQ(snap.counter_value("runtime.requests_submitted"), 1u);
  EXPECT_EQ(snap.counter_value("runtime.samples_scored"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("runtime.mean_batch_size"), 4.0);
  // Backpressure visibility: the queue gauges export alongside the
  // counters (depth is 0 once the lone request drained).
  EXPECT_NE(snap.find_gauge("runtime.queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge_value("runtime.queue_capacity"),
                   static_cast<double>(EngineOptions{}.queue_capacity));
}

// Batch occupancy is a ratio in (0, 1]: a request that overshoots
// max_batch (requests ride whole) fills its batch, it does not overfill it.
TEST(InferenceEngineTest, BatchOccupancyIsARatioCappedAtOne) {
  support::Rng rng(14);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  InferenceEngine engine({.workers = 1, .max_batch = 4});
  for (const std::size_t n : {std::size_t{2}, std::size_t{10}}) {
    auto sub = engine.submit(model, random_samples(n, 4, rng));
    ASSERT_EQ(sub.status, SubmitStatus::kAccepted);
    (void)sub.result.get();
  }
  const obs::MetricsSnapshot snap = engine.stats().snapshot();
  const auto* occupancy = snap.find_histogram("runtime.batch_occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_EQ(occupancy->hist.unit, obs::Histogram::Unit::kRatio);
  EXPECT_EQ(occupancy->hist.total_count, 2u);
  EXPECT_DOUBLE_EQ(occupancy->hist.max_seconds, 1.0);
  EXPECT_GT(occupancy->hist.quantile(0.5), 0.5);  // the 0.5 bucket's edge
  EXPECT_LT(occupancy->hist.quantile(0.5), 0.52);
  EXPECT_DOUBLE_EQ(occupancy->hist.mean(), 0.75);
}

TEST(InferenceEngineTest, StatsBindIntoExternalRegistry) {
  support::Rng rng(13);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink{&metrics, nullptr};
  {
    InferenceEngine engine({.workers = 1, .sink = &sink});
    auto sub = engine.submit(model, random_samples(3, 4, rng));
    ASSERT_EQ(sub.status, SubmitStatus::kAccepted);
    (void)sub.result.get();
    EXPECT_EQ(&engine.stats().registry(), &metrics);
  }
  // The engine's counters landed in the caller's registry and survive
  // the engine itself.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_value("runtime.requests_submitted"), 1u);
  EXPECT_EQ(snap.counter_value("runtime.samples_scored"), 3u);
  EXPECT_EQ(snap.counter_value("runtime.requests_completed"), 1u);
}

TEST(InferenceEngineTest, OptionsValidateRejects) {
  EXPECT_FALSE(EngineOptions{.workers = 0}.validate().ok());
  EXPECT_FALSE(EngineOptions{.queue_capacity = 0}.validate().ok());
  EXPECT_FALSE(EngineOptions{.max_batch = 0}.validate().ok());
  EXPECT_FALSE(EngineOptions{.max_wait_seconds = -1.0}.validate().ok());
  EXPECT_TRUE(EngineOptions{}.validate().ok());
  EXPECT_THROW(InferenceEngine({.workers = 0}), InvalidArgumentError);
}

}  // namespace
}  // namespace ldafp::runtime
