#include "obs/export.h"

#include <cstdio>
#include <limits>

#include "support/table.h"

namespace ldafp::obs {
namespace {

std::string format_duration(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  }
  return buf;
}

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string format_in_unit(double v, Histogram::Unit unit) {
  return unit == Histogram::Unit::kSeconds ? format_duration(v)
                                           : format_value(v);
}

void write_histogram(support::JsonWriter& json,
                     const Histogram::Snapshot& hist) {
  json.begin_object();
  json.kv("count", hist.total_count);
  json.kv("mean", hist.mean());
  json.kv("p50", hist.quantile(0.5));
  json.kv("p90", hist.quantile(0.9));
  json.kv("p99", hist.quantile(0.99));
  json.kv("p999", hist.quantile(0.999));
  json.kv("max", hist.max_seconds);
  json.kv("unit", hist.unit == Histogram::Unit::kSeconds ? "s" : "ratio");
  json.end_object();
}

}  // namespace

void write_json(support::JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& c : snapshot.counters) {
    json.kv(metric_identity(c.name, c.labels), c.value);
  }
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& g : snapshot.gauges) {
    json.kv(metric_identity(g.name, g.labels), g.value);
  }
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& h : snapshot.histograms) {
    json.key(metric_identity(h.name, h.labels));
    write_histogram(json, h.hist);
  }
  json.end_object();
  json.end_object();
}

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot) {
  support::JsonWriter json(out);
  write_json(json, snapshot);
  out << '\n';
}

void write_json(support::JsonWriter& json,
                const std::vector<SpanRecord>& spans) {
  json.begin_object();
  json.key("spans");
  json.begin_array();
  for (const SpanRecord& span : spans) {
    json.begin_object();
    json.kv("name", span.name);
    json.kv("thread", static_cast<std::uint64_t>(span.thread));
    json.kv("parent", static_cast<std::int64_t>(span.parent));
    json.kv("depth", static_cast<std::int64_t>(span.depth));
    json.kv("start", span.start_seconds);
    json.key("end");
    if (span.closed()) {
      json.value(span.end_seconds);
    } else {
      // JsonWriter renders non-finite doubles as null — the documented
      // "still open" marker.
      json.value(std::numeric_limits<double>::quiet_NaN());
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_trace_json(std::ostream& out,
                      const std::vector<SpanRecord>& spans) {
  support::JsonWriter json(out);
  write_json(json, spans);
  out << '\n';
}

std::string to_table(const MetricsSnapshot& snapshot) {
  support::TextTable values({"metric", "value"});
  for (const auto& c : snapshot.counters) {
    values.add_row({metric_identity(c.name, c.labels),
                    std::to_string(c.value)});
  }
  for (const auto& g : snapshot.gauges) {
    values.add_row({metric_identity(g.name, g.labels),
                    format_value(g.value)});
  }

  if (snapshot.histograms.empty()) return values.to_string();

  support::TextTable hists(
      {"histogram", "count", "mean", "p50", "p90", "p99", "p999", "max"});
  for (const auto& h : snapshot.histograms) {
    const auto cell = [&h](double v) { return format_in_unit(v, h.hist.unit); };
    hists.add_row({metric_identity(h.name, h.labels),
                   std::to_string(h.hist.total_count), cell(h.hist.mean()),
                   cell(h.hist.quantile(0.5)), cell(h.hist.quantile(0.9)),
                   cell(h.hist.quantile(0.99)), cell(h.hist.quantile(0.999)),
                   cell(h.hist.max_seconds)});
  }
  if (values.size() == 0) return hists.to_string();
  return values.to_string() + "\n" + hists.to_string();
}

}  // namespace ldafp::obs
