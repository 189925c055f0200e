// Serving telemetry: thin views over obs::MetricsRegistry handles.
//
// One RuntimeStats block lives in the engine; every score() call
// updates it through lock-free registry handles (relaxed counters,
// log-linear obs::Histogram buckets), so telemetry never serializes the
// callers.  Every histogram here times a duration in seconds.
// The block either binds into a caller-supplied registry (the
// EngineOptions::sink seam — engine metrics then export alongside
// everything else in the process) or owns a private one.  Reports are
// snapshot() rendered by the obs exporters (obs::to_table /
// obs::write_json, obs/export.h).
#pragma once

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

  // -- admission --
  obs::Counter& requests_submitted;  ///< accepted
  /// Refused for capacity.  score() never refuses for capacity, so this
  /// stays 0; it is exported because perfbench's runtime.rejected reads
  /// it.
  obs::Counter& requests_rejected;
  obs::Counter& requests_completed;
  obs::Counter& samples_scored;
  obs::Counter& batches_scored;  ///< one per accepted request

  // -- per-stage latency (seconds) --
  /// Entry to the start of scoring: the admission checks.
  obs::Histogram& queue_wait;
  obs::Histogram& batch_execute;  ///< scoring of one batch
  obs::Histogram& request_total;  ///< entry -> results ready

  /// The registry the handles live in (caller-supplied or owned).
  const obs::MetricsRegistry& registry() const { return *registry_; }

  /// Snapshot of the bound registry (render via obs::to_table /
  /// obs::write_json).
  obs::MetricsSnapshot snapshot() const { return registry_->snapshot(); }
};

}  // namespace ldafp::runtime
