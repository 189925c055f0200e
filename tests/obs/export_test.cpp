// Uniform exporters: JSON and table rendering of metrics snapshots and
// span traces, including determinism of the emitted bytes.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ldafp::obs {
namespace {

TEST(MetricsJsonTest, EmptySnapshotRendersEmptySections) {
  MetricsRegistry registry;
  std::ostringstream out;
  write_metrics_json(out, registry.snapshot());
  EXPECT_EQ(out.str(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n");
}

TEST(MetricsJsonTest, CountersAndGaugesUseIdentityKeys) {
  MetricsRegistry registry;
  registry.counter("bnb.nodes_processed").add(42);
  registry.counter("eval.trials", {{"w", "6"}}).increment();
  registry.gauge("bnb.gap").set(0.5);
  std::ostringstream out;
  write_metrics_json(out, registry.snapshot());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"bnb.nodes_processed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"eval.trials{w=6}\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bnb.gap\":0.5"), std::string::npos);
}

TEST(MetricsJsonTest, HistogramRendersSummaryObject) {
  MetricsRegistry registry;
  registry.histogram("queue_wait").record(1e-4);
  registry.histogram("queue_wait").record(2e-4);
  std::ostringstream out;
  write_metrics_json(out, registry.snapshot());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"queue_wait\":{\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"mean\":"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"max\":"), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"s\""), std::string::npos);
}

TEST(MetricsJsonTest, RatioHistogramDeclaresItsUnit) {
  MetricsRegistry registry;
  registry.histogram("fill", {}, Histogram::Unit::kRatio).record(0.25);
  std::ostringstream out;
  write_metrics_json(out, registry.snapshot());
  EXPECT_NE(out.str().find("\"unit\":\"ratio\""), std::string::npos);
  EXPECT_NE(out.str().find("\"max\":0.25"), std::string::npos);
}

TEST(MetricsJsonTest, DeterministicAcrossRegistrationOrder) {
  // Two registries fed the same values in different registration order
  // export byte-identical documents (snapshot sorting).
  MetricsRegistry a;
  a.counter("z").add(1);
  a.counter("a", {{"w", "8"}}).add(2);
  a.counter("a", {{"w", "4"}}).add(3);
  MetricsRegistry b;
  b.counter("a", {{"w", "4"}}).add(3);
  b.counter("z").add(1);
  b.counter("a", {{"w", "8"}}).add(2);

  std::ostringstream out_a;
  std::ostringstream out_b;
  write_metrics_json(out_a, a.snapshot());
  write_metrics_json(out_b, b.snapshot());
  EXPECT_EQ(out_a.str(), out_b.str());
}

TEST(MetricsJsonTest, ComposableInsideAnEnclosingDocument) {
  MetricsRegistry registry;
  registry.counter("c").increment();
  std::ostringstream out;
  support::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "demo");
  json.key("metrics");
  write_json(json, registry.snapshot());
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(out.str(),
            "{\"bench\":\"demo\",\"metrics\":{\"counters\":{\"c\":1},"
            "\"gauges\":{},\"histograms\":{}}}");
}

TEST(TraceJsonTest, SpansRenderWithHierarchyFields) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "train");
    ScopedSpan inner(&tracer, "solve");
  }
  std::ostringstream out;
  write_trace_json(out, tracer.snapshot());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"train\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
}

TEST(TraceJsonTest, OpenSpanEndIsNull) {
  Tracer tracer;
  ScopedSpan open(&tracer, "open");
  std::ostringstream out;
  write_trace_json(out, tracer.snapshot());
  EXPECT_NE(out.str().find("\"end\":null"), std::string::npos);
}

TEST(ToTableTest, RendersValueAndHistogramTables) {
  MetricsRegistry registry;
  registry.counter("runtime.requests_submitted").add(5);
  registry.gauge("runtime.mean_batch_size").set(2.5);
  registry.histogram("runtime.queue_wait").record(1e-4);
  registry.histogram("runtime.batch_occupancy", {}, Histogram::Unit::kRatio)
      .record(0.5);
  const std::string table = to_table(registry.snapshot());
  EXPECT_NE(table.find("runtime.requests_submitted"), std::string::npos);
  EXPECT_NE(table.find("5"), std::string::npos);
  EXPECT_NE(table.find("runtime.mean_batch_size"), std::string::npos);
  EXPECT_NE(table.find("2.5"), std::string::npos);
  EXPECT_NE(table.find("runtime.queue_wait"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_NE(table.find("100.0us"), std::string::npos);  // a duration
  // The ratio row renders plain numbers: no "us", "ms" or "s" suffix.
  const std::string name = "runtime.batch_occupancy";
  const std::size_t at = table.find(name);
  ASSERT_NE(at, std::string::npos);
  const std::string row =
      table.substr(at + name.size(), table.find('\n', at) - at - name.size());
  EXPECT_NE(row.find("0.5"), std::string::npos);
  EXPECT_EQ(row.find('s'), std::string::npos) << row;
}

TEST(ToTableTest, EmptySnapshotStillRendersHeader) {
  MetricsRegistry registry;
  const std::string table = to_table(registry.snapshot());
  EXPECT_NE(table.find("metric"), std::string::npos);
}

}  // namespace
}  // namespace ldafp::obs
