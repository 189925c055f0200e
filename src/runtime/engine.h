// Batched inference engine: one synchronous scoring call for the serve
// path, and a worker pool behind a future adapter for everyone else.
//
// The serve path scores on the thread that decoded the request:
// score(model, batch, results) runs submit's admission checks, scores a
// PackedBatch (already quantized at ingest by the model's BatchScorer)
// into the caller's result buffer, and records the same RuntimeStats
// series a one-request worker batch records.  Nothing crosses a
// thread, so an epoll loop that calls it produces each response in
// request order by construction (DESIGN.md §15).
//
// submit(model, samples) is the one-shot adapter for callers that are
// not serve loops (examples, benches): it packs on the calling thread,
// admits one request into a bounded MPMC queue, and a fixed pool of
// workers pops micro-batches (up to max_batch samples, lingering
// adaptively for stragglers), groups them by model snapshot, scores
// each group through the model's BatchScorer and resolves each
// request's future.  Either way results are bit-identical to calling
// FixedClassifier::classify per sample — batching and lane-merging
// change throughput, never bits (tests/runtime/engine_test.cpp).
//
// Overload on the adapter is explicit: a full queue rejects the
// submission with SubmitStatus::kQueueFull instead of buffering without
// bound, and shutdown() closes admission, drains every queued request,
// then joins the workers.  After shutdown() both paths answer
// kShuttingDown.
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
#include "runtime/queue.h"
#include "runtime/registry.h"
#include "runtime/stats.h"
#include "support/error.h"
#include "support/timer.h"

namespace ldafp::runtime {

/// Engine sizing and the adapter path's micro-batching policy.
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
  /// rest of the process; when `sink->tracer` is set each worker batch
  /// records an "engine.batch" span (score() records none: a span per
  /// served request would grow the trace without bound).  Scoring
  /// results are identical either way.
  obs::Sink* sink = nullptr;

  /// Checks the sizing knobs; called once by the engine constructor.
  Status validate() const;
};

/// Admission outcome of submit() and score().
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

  /// Synchronous scoring on the calling thread (the serve path).
  /// `batch` must be non-empty and packed by `model`'s scorer.  On
  /// kAccepted `results` holds one ScoreResult per batch row, in order
  /// (resized in place, so a reused buffer stops allocating once warm).
  /// kInvalidRequest (null model, empty batch, dim mismatch) and
  /// kShuttingDown (after shutdown()) leave `results` untouched; the
  /// call never answers kQueueFull.  Records requests_submitted,
  /// queue_wait (entry to the start of scoring), batch_execute,
  /// batch_occupancy, batches_scored, samples_scored,
  /// requests_completed and request_total, as a one-request worker batch
  /// would.  Thread-safe.
  SubmitStatus score(const ModelHandle& model, const PackedBatch& batch,
                     std::vector<ScoreResult>& results);

  /// Future-based adapter: enqueues `samples` for scoring against
  /// `model`.  All samples of a request ride in one queue slot and
  /// resolve through one future.  Packs on the submitting thread and
  /// pays one heap record (with its promise) per request.
  Submission submit(ModelHandle model, std::vector<linalg::Vector> samples);

  /// Single-sample convenience.
  Submission submit(ModelHandle model, linalg::Vector sample);

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
  /// One adapter request: the snapshot it was packed against (grouping
  /// key; keeps the model alive through scoring), its packed samples,
  /// the scored results and the promise they resolve.
  struct Job {
    ModelHandle model;
    PackedBatch batch;
    std::vector<ScoreResult> results;
    std::promise<std::vector<ScoreResult>> promise;
    support::WallTimer submitted;  ///< admission -> delivery
  };

  /// Per-worker reusable scratch: the popped jobs, the grouping arrays,
  /// the merged packed batch and the scored results staging area all
  /// live for the worker's lifetime.
  struct WorkerScratch {
    std::vector<std::unique_ptr<Job>> batch;
    std::vector<const ModelSnapshot*> group_keys;
    std::vector<std::vector<Job*>> groups;
    PackedBatch merged;
    std::vector<ScoreResult> scored;
  };

  void worker_loop();
  void score_group(const ModelSnapshot& model, std::vector<Job*>& group,
                   WorkerScratch& scratch);
  /// Fill fraction of a scored batch of `rows` samples, capped at 1.
  double occupancy(std::size_t rows) const;

  EngineOptions options_;
  obs::Tracer* tracer_ = nullptr;
  RuntimeStats stats_;
  BoundedQueue<std::unique_ptr<Job>> queue_;

  std::atomic<bool> accepting_{true};
  std::once_flag shutdown_once_;
  std::vector<std::thread> workers_;
};

}  // namespace ldafp::runtime
