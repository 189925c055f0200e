// Serving telemetry: thin views over obs::MetricsRegistry handles.
//
// One RuntimeStats block lives in the engine; score(), submit and the
// workers update it through lock-free registry handles (relaxed counters,
// log-linear obs::Histogram buckets), so telemetry never serializes the
// hot path.  Every histogram here times a duration in seconds except
// batch_occupancy, which is registered with the ratio unit and renders
// as a plain fraction.
// The block either binds into a caller-supplied registry (the
// EngineOptions::sink seam — engine metrics then export alongside
// everything else in the process) or owns a private one.  Reports are
// snapshot() rendered by the obs exporters (obs::to_table /
// obs::write_json, obs/export.h).
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace ldafp::runtime {

/// Counter block of one InferenceEngine.
class RuntimeStats {
  // Registry storage first: the public handles below bind into it at
  // construction, and members initialize in declaration order.
  std::unique_ptr<obs::MetricsRegistry> owned_;
  obs::MetricsRegistry* registry_;

 public:
  /// Binds the handles into `registry` ("runtime.*" names); owns a
  /// private registry when null.
  explicit RuntimeStats(obs::MetricsRegistry* registry = nullptr);

  RuntimeStats(const RuntimeStats&) = delete;
  RuntimeStats& operator=(const RuntimeStats&) = delete;

  // -- submission admission --
  obs::Counter& requests_submitted;  ///< accepted
  obs::Counter& requests_rejected;   ///< queue full
  obs::Counter& requests_completed;
  obs::Counter& samples_scored;

  // -- worker batching --
  obs::Counter& batches_scored;

  /// Live depth of the future adapter's request queue (mirrored from
  /// the queue by the engine at submit and batch-formation time), plus
  /// the configured capacity — together they make the adapter's
  /// backpressure visible in every exported snapshot: a rejected
  /// counter climbing while depth pins at capacity is the kQueueFull
  /// signature.
  obs::Gauge& queue_depth;
  obs::Gauge& queue_capacity;

  /// Deepest the request queue has been (mirrored from the queue at
  /// submit time by the engine; kept here so exports are self-contained).
  obs::Gauge& queue_depth_high_water;

  // -- per-stage latency (seconds) --
  /// Admission -> start of scoring: the queue and linger on the adapter
  /// path, only the admission checks in score().
  obs::Histogram& queue_wait;
  obs::Histogram& batch_execute;  ///< scoring of one batch
  obs::Histogram& request_total;  ///< admission -> results ready

  /// Fill fraction of each scored batch (samples / max_batch, in
  /// (0, 1], unit ratio); on the adapter path the adaptive linger's
  /// efficiency signal — pinned low under load means batching is not
  /// amortizing, pinned at 1.0 means the queue always fills the batch.
  obs::Histogram& batch_occupancy;

  /// Mean samples per scored batch (the micro-batcher's achieved
  /// amortization).
  double mean_batch_size() const;

  /// The registry the handles live in (caller-supplied or owned).
  const obs::MetricsRegistry& registry() const { return *registry_; }

  /// Snapshot of the bound registry with the derived
  /// "runtime.mean_batch_size" gauge refreshed first — the uniform
  /// reporting path (render via obs::to_table / obs::write_json).
  obs::MetricsSnapshot snapshot() const;

 private:
  obs::Gauge& mean_batch_size_gauge_;  ///< derived, refreshed by snapshot()
};

}  // namespace ldafp::runtime
