// Multi-threaded batched inference engine.
//
// The serving pipeline is completion-driven: submit(RequestBlock*)
// admits a pooled record that already carries its quantized PackedBatch
// (packed at ingest — no per-sample vectors, no re-quantization) into a
// bounded MPMC queue; a fixed pool of workers pops micro-batches (up to
// max_batch samples, lingering adaptively for stragglers), groups them
// by model snapshot in one stable pass, scores each group through the
// model's BatchScorer, and pushes each finished block onto its
// submitter's CompletionQueue — ringing that consumer's eventfd so an
// epoll loop wakes exactly when replies exist instead of polling
// futures.  Results are bit-identical to calling
// FixedClassifier::classify per sample — batching and lane-merging
// change throughput, never bits (tests/runtime/engine_test.cpp and
// completion_test.cpp hold the cross-check under concurrency).
//
// A thin future-based submit() adapter survives for callers that want
// one-shot request/response without owning a completion queue; it rides
// the same block pipeline with a promise attached.
//
// Overload behaviour is explicit: a full queue rejects the submission
// with SubmitStatus::kQueueFull instead of buffering without bound, and
// shutdown() closes admission, drains every in-flight request, then
// joins the workers — a drained engine never drops a completion.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "linalg/vector.h"
#include "obs/sink.h"
#include "runtime/batch_scorer.h"
#include "runtime/completion.h"
#include "runtime/queue.h"
#include "runtime/registry.h"
#include "runtime/stats.h"
#include "support/error.h"
#include "support/timer.h"

namespace ldafp::runtime {

/// Engine sizing and micro-batching policy.
struct EngineOptions {
  /// Worker threads in the scoring pool (>= 1).
  std::size_t workers = 4;
  /// Bounded request-queue capacity (requests, not samples).
  std::size_t queue_capacity = 1024;
  /// Micro-batch target: a worker scores at most this many samples per
  /// pass (requests are admitted whole, so a single oversized request
  /// still scores in one pass).
  std::size_t max_batch = 64;
  /// Linger budget: the most a worker waits for more requests while its
  /// batch is short.  The effective linger adapts to queue depth —
  /// max_wait_seconds * min(1, (depth + 1) / max_batch) — so an idle
  /// engine answers at near-zero added latency while a loaded one waits
  /// long enough to fill its batch.  0 disables lingering.
  double max_wait_seconds = 500e-6;

  /// Observability seam (may be null = self-contained).  When
  /// `sink->metrics` is set the engine binds its RuntimeStats handles
  /// into that registry, so "runtime.*" metrics export alongside the
  /// rest of the process; when `sink->tracer` is set each scored batch
  /// records an "engine.batch" span.  Scoring results are identical
  /// either way.
  obs::Sink* sink = nullptr;

  /// Checks the sizing knobs; called once by the engine constructor.
  Status validate() const;
};

/// Admission outcome of submit().
enum class SubmitStatus {
  kAccepted,
  kQueueFull,      ///< backpressure — shed or retry with backoff
  kShuttingDown,   ///< engine no longer admits work
  kInvalidRequest, ///< null model or empty/mismatched sample list
};

/// Short display name of a submit status.
const char* to_string(SubmitStatus status);

/// An admitted (or rejected) request on the adapter path: when status ==
/// kAccepted, `result` resolves to one ScoreResult per submitted sample,
/// in order.
struct Submission {
  SubmitStatus status = SubmitStatus::kInvalidRequest;
  std::future<std::vector<ScoreResult>> result;
};

/// Fixed-pool batched scoring engine over registry model handles.
class InferenceEngine {
 public:
  explicit InferenceEngine(EngineOptions options = {});

  /// Drains and joins (see shutdown()).
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Completion-driven admission (the serve hot path).  `block` must
  /// carry a model handle and a non-empty PackedBatch packed by that
  /// model's scorer; `block->completions` (or `block->promise`) names
  /// the delivery target.  On kAccepted the engine owns the block until
  /// it delivers the completion — exactly once, even across shutdown.
  /// On any other status ownership stays with the caller (recycle or
  /// retry).  Thread-safe.
  SubmitStatus submit(RequestBlock* block);

  /// Future-based adapter: enqueues `samples` for scoring against
  /// `model`.  All samples of a request ride in one queue slot and
  /// resolve through one future.  (Unlike the block path, this packs on
  /// the submitting thread and pays one promise allocation.)
  Submission submit(ModelHandle model, std::vector<linalg::Vector> samples);

  /// Single-sample convenience.
  Submission submit(ModelHandle model, linalg::Vector sample);

  /// Parks the workers: once this returns no worker takes another
  /// request until resume(); batches already popped finish (a lingering
  /// batch stops growing).  Admission and backpressure stay live.
  void pause();
  /// Unparks the workers.
  void resume();

  /// Stops admission, drains every queued request, joins the pool.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Telemetry (live; readable while traffic flows).
  const RuntimeStats& stats() const { return stats_; }
  /// Current queue depth (requests waiting for a worker).
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t worker_count() const { return workers_.size(); }
  const EngineOptions& options() const { return options_; }

 private:
  /// Per-worker reusable scratch: the merged packed batch, the scored
  /// results staging area, and the grouping arrays all live for the
  /// worker's lifetime, so the steady-state scoring path allocates
  /// nothing once warm.
  struct WorkerScratch {
    std::vector<RequestBlock*> batch;
    std::vector<const ModelSnapshot*> group_keys;
    std::vector<std::vector<RequestBlock*>> groups;
    PackedBatch merged;
    std::vector<ScoreResult> scored;
  };

  void worker_loop();
  void score_group(const ModelSnapshot& model,
                   std::vector<RequestBlock*>& group,
                   WorkerScratch& scratch);
  /// Hands a scored block to its delivery target (completion queue,
  /// promise, or — when the consumer is gone — the deleter).
  void deliver(RequestBlock* block);

  EngineOptions options_;
  obs::Tracer* tracer_ = nullptr;
  RuntimeStats stats_;
  BoundedQueue<RequestBlock*> queue_;

  std::atomic<bool> accepting_{true};
  std::once_flag shutdown_once_;
  std::vector<std::thread> workers_;
};

}  // namespace ldafp::runtime
