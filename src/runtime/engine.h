// Synchronous inference engine: admission checks, the model's
// BatchScorer and the serving counters, on the caller's thread.
//
// score(model, batch, results) checks the request, scores a PackedBatch
// (already quantized at ingest by the model's BatchScorer) into the
// caller's result buffer, and records RuntimeStats.  The engine starts
// no thread and owns no queue: an epoll loop that calls it produces each
// response in request order by construction (DESIGN.md §15), and a
// caller that wants parallelism scores on its own threads — score() is
// thread-safe.  Results are bit-identical to calling
// FixedClassifier::classify per sample (tests/runtime/engine_test.cpp).
//
// shutdown() closes admission; score() answers kShuttingDown from then
// on.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "obs/sink.h"
#include "runtime/batch_scorer.h"
#include "runtime/registry.h"
#include "runtime/stats.h"

namespace ldafp::runtime {

/// Engine construction options.
struct EngineOptions {
  /// Ignored.  Kept only because perfbench sets it; remove both fields
  /// at the next change to the benchmark.
  std::size_t workers = 1;
  /// Ignored.  Kept only because perfbench sets it (see `workers`).
  std::size_t queue_capacity = 1024;

  /// Observability seam (may be null = self-contained).  When
  /// `sink->metrics` is set the engine binds its RuntimeStats handles
  /// into that registry, so "runtime.*" metrics export alongside the
  /// rest of the process.  Scoring results are identical either way.
  obs::Sink* sink = nullptr;
};

/// Admission outcome of score().
enum class SubmitStatus {
  kAccepted,
  kShuttingDown,   ///< engine no longer admits work
  kInvalidRequest, ///< null model, empty batch or dim mismatch
};

/// Short display name of a submit status.
const char* to_string(SubmitStatus status);

/// Synchronous scoring engine over registry model handles.
class InferenceEngine {
 public:
  explicit InferenceEngine(EngineOptions options = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Scores `batch`, which must be non-empty and packed by `model`'s
  /// scorer, on the calling thread.  On kAccepted `results` holds one
  /// ScoreResult per batch row, in order (resized in place, so a reused
  /// buffer stops allocating once warm).  kInvalidRequest and
  /// kShuttingDown leave `results` untouched.  Records
  /// requests_submitted, queue_wait (entry to the start of scoring),
  /// batch_execute, batches_scored, samples_scored, requests_completed
  /// and request_total.  Thread-safe.
  SubmitStatus score(const ModelHandle& model, const PackedBatch& batch,
                     std::vector<ScoreResult>& results);

  /// Stops admission.  Idempotent.
  void shutdown() { accepting_.store(false, std::memory_order_release); }

  /// Telemetry (live; readable while traffic flows).
  const RuntimeStats& stats() const { return stats_; }

 private:
  RuntimeStats stats_;
  std::atomic<bool> accepting_{true};
};

}  // namespace ldafp::runtime
