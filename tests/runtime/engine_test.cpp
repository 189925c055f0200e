#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/sink.h"
#include "runtime/registry.h"
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

/// Packs `xs` into `batch` (cleared first) with `model`'s scorer.
void pack(const ModelHandle& model, const std::vector<Vector>& xs,
          PackedBatch& batch) {
  batch.clear();
  model->scorer.pack_into(batch, xs.data(), xs.size());
}

TEST(InferenceEngineTest, SingleRequestMatchesSequentialClassifier) {
  support::Rng rng(1);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(8, rng));
  InferenceEngine engine;
  const auto xs = random_samples(10, 8, rng);
  PackedBatch batch;
  pack(model, xs, batch);
  std::vector<ScoreResult> results;
  ASSERT_EQ(engine.score(model, batch, results), SubmitStatus::kAccepted);
  ASSERT_EQ(results.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(results[i].label, model->classifier.classify(xs[i]));
    EXPECT_EQ(results[i].projection_raw,
              model->classifier.project_raw(xs[i]));
  }
}

// The headline determinism property: N threads, each packing into its
// own PackedBatch and scoring through one shared engine (and one shared
// stats block), produce bit-for-bit the labels and projection words of
// a sequential FixedClassifier::classify loop over the same samples.
TEST(InferenceEngineTest, ConcurrentTrafficIsBitExactAgainstSequential) {
  support::Rng rng(99);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(16, rng));
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequestsPerThread = 300;

  // Pre-draw every thread's traffic and the sequential reference.
  std::vector<std::vector<Vector>> traffic;
  std::vector<std::vector<core::Label>> expected_labels;
  std::vector<std::vector<std::int64_t>> expected_raw;
  for (std::size_t t = 0; t < kThreads; ++t) {
    traffic.push_back(random_samples(kRequestsPerThread, 16, rng));
    std::vector<core::Label> labels;
    std::vector<std::int64_t> raws;
    for (const Vector& x : traffic.back()) {
      labels.push_back(model->classifier.classify(x));
      raws.push_back(model->classifier.project_raw(x));
    }
    expected_labels.push_back(std::move(labels));
    expected_raw.push_back(std::move(raws));
  }

  InferenceEngine engine;
  std::vector<std::vector<ScoreResult>> served(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PackedBatch batch;
      std::vector<ScoreResult> results;
      for (const Vector& x : traffic[t]) {
        batch.clear();
        model->scorer.pack_into(batch, &x, 1);
        ASSERT_EQ(engine.score(model, batch, results),
                  SubmitStatus::kAccepted);
        served[t].push_back(results[0]);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(served[t].size(), kRequestsPerThread);
    for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
      EXPECT_EQ(served[t][i].label, expected_labels[t][i]);
      EXPECT_EQ(served[t][i].projection_raw, expected_raw[t][i]);
    }
  }
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.requests_completed.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.batches_scored.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.samples_scored.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.requests_rejected.load(), 0u);
}

// Calls already admitted when shutdown() lands finish with full
// results; every later call answers kShuttingDown and leaves the
// caller's buffer untouched.
TEST(InferenceEngineTest, ShutdownDrainsInFlightRequests) {
  support::Rng rng(5);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(6, rng));
  const auto xs = random_samples(32, 6, rng);
  InferenceEngine engine;
  constexpr std::size_t kThreads = 3;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> started{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PackedBatch batch;
      pack(model, xs, batch);
      std::vector<ScoreResult> results;
      while (true) {
        results.assign(1, ScoreResult{});
        const SubmitStatus status = engine.score(model, batch, results);
        started.fetch_add(1);
        if (status == SubmitStatus::kShuttingDown) {
          EXPECT_EQ(results.size(), 1u);  // untouched
          return;
        }
        ASSERT_EQ(status, SubmitStatus::kAccepted);
        ASSERT_EQ(results.size(), xs.size());
        EXPECT_EQ(results.back().projection_raw,
                  model->classifier.project_raw(xs.back()));
        accepted.fetch_add(1);
      }
    });
  }
  while (started.load() < 100) std::this_thread::yield();
  engine.shutdown();
  for (auto& thread : threads) thread.join();
  engine.shutdown();  // idempotent

  EXPECT_EQ(engine.stats().requests_completed.load(), accepted.load());
  PackedBatch batch;
  pack(model, xs, batch);
  std::vector<ScoreResult> results(3);
  EXPECT_EQ(engine.score(model, batch, results), SubmitStatus::kShuttingDown);
  EXPECT_EQ(results.size(), 3u);
}

// The serve path's call records every series perfbench reads, one
// record per accepted request; refused calls record nothing and leave
// the caller's buffer as it was.
TEST(InferenceEngineTest, SynchronousScoreMatchesClassifierAndRecordsStats) {
  support::Rng rng(6);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(8, rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink{&metrics, nullptr};
  InferenceEngine engine({.sink = &sink});
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
  EXPECT_NE(snap.find_counter("runtime.requests_rejected"), nullptr);
  for (const char* name : {"runtime.queue_wait", "runtime.batch_execute",
                           "runtime.request_total"}) {
    const auto* h = snap.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->hist.total_count, 1u) << name;
  }

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
  const auto other = registry.install("n", random_classifier(3, rng));
  InferenceEngine engine;
  const PackedBatch batch = model->scorer.pack(random_samples(2, 4, rng));
  std::vector<ScoreResult> results(5);
  EXPECT_EQ(engine.score(nullptr, batch, results),
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(engine.score(model, PackedBatch{}, results),
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(engine.score(other, batch, results),  // wrong dimension
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(results.size(), 5u);
  EXPECT_EQ(engine.stats().requests_submitted.load(), 0u);
  EXPECT_EQ(engine.stats().requests_completed.load(), 0u);
}

// perfbench's exact accounting: requests_completed equals the accepted
// calls, and samples_scored / batches_scored is the mean rows of the
// accepted batches (its runtime.batch_size).
TEST(InferenceEngineTest, AccountingCountsEveryAcceptedCall) {
  support::Rng rng(21);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(5, rng));
  const auto other = registry.install("n", random_classifier(2, rng));
  InferenceEngine engine;
  PackedBatch batch;
  std::vector<ScoreResult> results;
  std::uint64_t accepted = 0;
  std::uint64_t rows = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    pack(model, random_samples(1 + i % 7, 5, rng), batch);
    SubmitStatus status;
    switch (i % 4) {
      case 0: status = engine.score(nullptr, batch, results); break;
      case 1: status = engine.score(other, batch, results); break;
      default: status = engine.score(model, batch, results); break;
    }
    if (status == SubmitStatus::kAccepted) {
      ++accepted;
      rows += batch.rows;
    }
  }
  ASSERT_EQ(accepted, 30u);
  const obs::MetricsSnapshot snap = engine.stats().snapshot();
  EXPECT_EQ(snap.counter_value("runtime.requests_completed"), accepted);
  EXPECT_EQ(snap.counter_value("runtime.requests_submitted"), accepted);
  EXPECT_EQ(snap.counter_value("runtime.batches_scored"), accepted);
  EXPECT_EQ(snap.counter_value("runtime.samples_scored"), rows);
  EXPECT_EQ(snap.counter_value("runtime.requests_rejected"), 0u);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(snap.counter_value("runtime.samples_scored")) /
          static_cast<double>(snap.counter_value("runtime.batches_scored")),
      static_cast<double>(rows) / static_cast<double>(accepted));
}

// A scoring thread resolves the registry per request while the model is
// hot-swapped under it: it serves both snapshots, and every result
// matches the snapshot that scored it.
TEST(InferenceEngineTest, HotSwapMidTrafficServesBothSnapshotsExactly) {
  support::Rng rng(11);
  ModelRegistry registry;
  registry.install("m", random_classifier(8, rng));
  const core::FixedClassifier v2 = random_classifier(8, rng);
  const auto xs = random_samples(40, 8, rng);
  InferenceEngine engine;
  std::atomic<std::uint64_t> served_v1{0};
  std::atomic<std::uint64_t> served_v2{0};
  std::thread traffic([&] {
    PackedBatch batch;
    std::vector<ScoreResult> results;
    for (std::size_t i = 0; served_v2.load() < 200; ++i) {
      const Vector& x = xs[i % xs.size()];
      const ModelHandle handle = registry.get("m");
      batch.clear();
      handle->scorer.pack_into(batch, &x, 1);
      ASSERT_EQ(engine.score(handle, batch, results),
                SubmitStatus::kAccepted);
      EXPECT_EQ(results[0].label, handle->classifier.classify(x));
      EXPECT_EQ(results[0].projection_raw,
                handle->classifier.project_raw(x));
      (handle->version == 1 ? served_v1 : served_v2).fetch_add(1);
    }
  });
  while (served_v1.load() < 200) std::this_thread::yield();
  registry.install("m", v2);  // hot swap
  traffic.join();
  EXPECT_GE(served_v1.load(), 200u);
  EXPECT_GE(served_v2.load(), 200u);
  EXPECT_EQ(engine.stats().requests_completed.load(),
            served_v1.load() + served_v2.load());
}

TEST(InferenceEngineTest, StatsReportRenders) {
  support::Rng rng(13);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  InferenceEngine engine;
  const PackedBatch batch = model->scorer.pack(random_samples(4, 4, rng));
  std::vector<ScoreResult> results;
  ASSERT_EQ(engine.score(model, batch, results), SubmitStatus::kAccepted);
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
}

TEST(InferenceEngineTest, StatsBindIntoExternalRegistry) {
  support::Rng rng(13);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink{&metrics, nullptr};
  {
    InferenceEngine engine({.sink = &sink});
    const PackedBatch batch = model->scorer.pack(random_samples(3, 4, rng));
    std::vector<ScoreResult> results;
    ASSERT_EQ(engine.score(model, batch, results), SubmitStatus::kAccepted);
    EXPECT_EQ(&engine.stats().registry(), &metrics);
  }
  // The engine's counters landed in the caller's registry and survive
  // the engine itself.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_value("runtime.requests_submitted"), 1u);
  EXPECT_EQ(snap.counter_value("runtime.samples_scored"), 3u);
  EXPECT_EQ(snap.counter_value("runtime.requests_completed"), 1u);
}

// The engine is a plain object: constructing one, whatever the two
// ignored sizing fields say, starts no thread.
TEST(InferenceEngineTest, ConstructionStartsNoThread) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::is_directory(tasks)) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  const auto count = [&] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = count();
  InferenceEngine engine({.workers = 8, .queue_capacity = 64});
  EXPECT_EQ(count(), before);
}

}  // namespace
}  // namespace ldafp::runtime
