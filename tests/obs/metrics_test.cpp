// MetricsRegistry: idempotent registration, label identity, snapshot
// determinism, and hot-path thread safety (the `obs` label runs this
// under ThreadSanitizer).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ldafp::obs {
namespace {

TEST(MetricIdentityTest, BareNameAndSortedLabels) {
  EXPECT_EQ(metric_identity("bnb.nodes", {}), "bnb.nodes");
  EXPECT_EQ(metric_identity("eval.error", {{"w", "6"}}), "eval.error{w=6}");
  // Labels sort by key, so the identity is order-insensitive.
  EXPECT_EQ(metric_identity("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(metric_identity("m", {{"a", "1"}, {"b", "2"}}), "m{a=1,b=2}");
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.counter("c");
  Counter& b = registry.counter("c");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.increment();
  EXPECT_EQ(a.load(), 3u);
  EXPECT_EQ(registry.size(), 1u);

  // Same name with different labels is a different instance; label
  // order does not matter.
  Counter& w4 = registry.counter("c", {{"w", "4"}});
  EXPECT_NE(&a, &w4);
  EXPECT_EQ(&w4, &registry.counter("c", {{"w", "4"}}));
  Counter& two = registry.counter("c", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&two, &registry.counter("c", {{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, KindsAreSeparateNamespaces) {
  MetricsRegistry registry;
  registry.counter("x").add(7);
  registry.gauge("x").set(2.5);
  registry.histogram("x").record(1e-3);
  EXPECT_EQ(registry.size(), 3u);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("x"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("x"), 2.5);
  ASSERT_NE(snap.find_histogram("x"), nullptr);
  EXPECT_EQ(snap.find_histogram("x")->hist.total_count, 1u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("g");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.load(), 3.0);
  g.add(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.load(), 3.75);
}

TEST(MetricsRegistryTest, SnapshotSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.counter("b.second").increment();
  registry.counter("a.first", {{"w", "8"}}).increment();
  registry.counter("a.first", {{"w", "4"}}).increment();

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].labels, (Labels{{"w", "4"}}));
  EXPECT_EQ(snap.counters[1].name, "a.first");
  EXPECT_EQ(snap.counters[1].labels, (Labels{{"w", "8"}}));
  EXPECT_EQ(snap.counters[2].name, "b.second");
}

TEST(MetricsSnapshotTest, AbsentInstancesReadAsZero) {
  MetricsRegistry registry;
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find_counter("missing"), nullptr);
  EXPECT_EQ(snap.find_gauge("missing"), nullptr);
  EXPECT_EQ(snap.find_histogram("missing"), nullptr);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("missing"), 0.0);
}

// Handles stay valid while other threads register (deque storage), and
// concurrent add/record on shared handles is race-free.  TSan-checked.
TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry registry;
  Counter& shared = registry.counter("shared");
  Histogram& hist = registry.histogram("latency");
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter& mine =
          registry.counter("per_thread", {{"t", std::to_string(t)}});
      for (int i = 0; i < kIters; ++i) {
        shared.increment();
        mine.increment();
        hist.record(1e-5);
        if (i % 256 == 0) (void)registry.snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("shared"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counter_value("per_thread", {{"t", std::to_string(t)}}),
              static_cast<std::uint64_t>(kIters));
  }
  ASSERT_NE(snap.find_histogram("latency"), nullptr);
  EXPECT_EQ(snap.find_histogram("latency")->hist.total_count,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace ldafp::obs
