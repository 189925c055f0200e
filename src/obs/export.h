// Uniform exporters over obs snapshots.
//
// Every subsystem reports through the same three surfaces: the
// MetricsSnapshot / SpanRecord value structs (tests), JSON via
// support::JsonWriter (benches, the CLI's --metrics-json/--trace, CI
// artifacts), and aligned text tables via support::TextTable (logs).
// JSON keys are metric identity strings ("name" or "name{k=v}"), values
// deterministic for deterministic workloads; see README for samples.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/json.h"

namespace ldafp::obs {

/// Writes a snapshot as one JSON object value:
///   {"counters": {"bnb.nodes_processed": 123, ...},
///    "gauges": {"bnb.gap": 1e-9, ...},
///    "histograms": {"eval.train_seconds":
///        {"count": 3, "mean": ..., "p50": ..., "p90": ..., "p99": ...,
///         "p999": ..., "max": ..., "unit": "s"}, ...}}
/// Histogram values are in the declared unit: "s" (seconds) or "ratio".
/// Composable: the writer may be inside any container (a bench's
/// per-case object, the CLI's top-level document).
void write_json(support::JsonWriter& json, const MetricsSnapshot& snapshot);

/// Whole-document convenience: the object above plus a trailing newline.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

/// Writes spans as one JSON object value:
///   {"spans": [{"name": ..., "thread": 0, "parent": -1, "depth": 0,
///               "start": ..., "end": ...}, ...]}
/// Open spans export with "end": null.
void write_json(support::JsonWriter& json,
                const std::vector<SpanRecord>& spans);

/// Whole-document convenience for traces.
void write_trace_json(std::ostream& out,
                      const std::vector<SpanRecord>& spans);

/// Renders counters/gauges as one aligned table and histograms (count,
/// mean, and quantiles; seconds formatted as durations, ratios as plain
/// numbers) as a second.
std::string to_table(const MetricsSnapshot& snapshot);

}  // namespace ldafp::obs
