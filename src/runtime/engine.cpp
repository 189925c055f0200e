#include "runtime/engine.h"

#include <chrono>

namespace ldafp::runtime {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kShuttingDown: return "shutting-down";
    case SubmitStatus::kInvalidRequest: return "invalid-request";
  }
  return "?";
}

InferenceEngine::InferenceEngine(EngineOptions options)
    : stats_(obs::metrics_of(options.sink)) {}

SubmitStatus InferenceEngine::score(const ModelHandle& model,
                                    const PackedBatch& batch,
                                    std::vector<ScoreResult>& results) {
  using clock = std::chrono::steady_clock;
  const clock::time_point admitted = clock::now();
  if (model == nullptr || batch.rows == 0 ||
      batch.dim != model->classifier.dim()) {
    return SubmitStatus::kInvalidRequest;
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    return SubmitStatus::kShuttingDown;
  }
  stats_.requests_submitted.increment();
  const clock::time_point started = clock::now();
  results.resize(batch.rows);
  model->scorer.score(batch, results.data());
  const clock::time_point done = clock::now();
  stats_.queue_wait.record(
      std::chrono::duration<double>(started - admitted).count());
  stats_.batch_execute.record(
      std::chrono::duration<double>(done - started).count());
  stats_.batches_scored.increment();
  stats_.samples_scored.add(batch.rows);
  stats_.requests_completed.increment();
  stats_.request_total.record(
      std::chrono::duration<double>(done - admitted).count());
  return SubmitStatus::kAccepted;
}

}  // namespace ldafp::runtime
