#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "support/error.h"

namespace ldafp::runtime {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFull: return "queue-full";
    case SubmitStatus::kShuttingDown: return "shutting-down";
    case SubmitStatus::kInvalidRequest: return "invalid-request";
  }
  return "?";
}

Status EngineOptions::validate() const {
  if (workers < 1) {
    return Status::invalid("engine needs at least one worker");
  }
  if (queue_capacity < 1) {
    return Status::invalid("queue_capacity must be positive");
  }
  if (max_batch < 1) {
    return Status::invalid("max_batch must be positive");
  }
  if (!(max_wait_seconds >= 0.0)) {
    return Status::invalid("max_wait_seconds must be non-negative");
  }
  return Status();
}

InferenceEngine::InferenceEngine(EngineOptions options)
    : options_(options),
      tracer_(obs::tracer_of(options.sink)),
      stats_(obs::metrics_of(options.sink)),
      queue_(options.queue_capacity) {
  throw_if_error(options_.validate());
  stats_.queue_capacity.set(static_cast<double>(options_.queue_capacity));
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceEngine::~InferenceEngine() { shutdown(); }

double InferenceEngine::occupancy(std::size_t rows) const {
  // A whole request can overshoot max_batch; that batch is full.
  return std::min(1.0, static_cast<double>(rows) /
                           static_cast<double>(options_.max_batch));
}

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
  stats_.batch_occupancy.record(occupancy(batch.rows));
  stats_.batches_scored.increment();
  stats_.samples_scored.add(batch.rows);
  stats_.requests_completed.increment();
  stats_.request_total.record(
      std::chrono::duration<double>(done - admitted).count());
  return SubmitStatus::kAccepted;
}

Submission InferenceEngine::submit(ModelHandle model,
                                   std::vector<linalg::Vector> samples) {
  Submission submission;
  if (model == nullptr || samples.empty()) {
    submission.status = SubmitStatus::kInvalidRequest;
    return submission;
  }
  const std::size_t dim = model->classifier.dim();
  for (const linalg::Vector& x : samples) {
    if (x.size() != dim) {
      submission.status = SubmitStatus::kInvalidRequest;
      return submission;
    }
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    submission.status = SubmitStatus::kShuttingDown;
    return submission;
  }

  auto job = std::make_unique<Job>();
  job->model = std::move(model);
  job->model->scorer.pack_into(job->batch, samples.data(), samples.size());
  // The future must be taken before admission: a worker may fulfill
  // (and free) the job immediately.
  submission.result = job->promise.get_future();
  job->submitted = support::WallTimer();
  switch (queue_.try_push(std::move(job))) {
    case PushResult::kOk:
      stats_.requests_submitted.increment();
      // The queue's depth and high-water mark are mirrored into the
      // stats block at admission so exports are self-contained.
      stats_.queue_depth.set(static_cast<double>(queue_.size()));
      stats_.queue_depth_high_water.set_max(
          static_cast<double>(queue_.high_water_mark()));
      submission.status = SubmitStatus::kAccepted;
      return submission;
    case PushResult::kFull:
      stats_.requests_rejected.increment();
      stats_.queue_depth.set(static_cast<double>(queue_.size()));
      submission.status = SubmitStatus::kQueueFull;
      break;
    case PushResult::kClosed:
      submission.status = SubmitStatus::kShuttingDown;
      break;
  }
  submission.result = {};
  return submission;
}

Submission InferenceEngine::submit(ModelHandle model, linalg::Vector sample) {
  std::vector<linalg::Vector> samples;
  samples.push_back(std::move(sample));
  return submit(std::move(model), std::move(samples));
}

void InferenceEngine::shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    // Closing the queue flips pushes to kClosed and lets the workers
    // drain the backlog.
    queue_.close();
    for (std::thread& worker : workers_) worker.join();
  });
}

void InferenceEngine::worker_loop() {
  using clock = std::chrono::steady_clock;
  WorkerScratch scratch;
  std::vector<std::unique_ptr<Job>>& batch = scratch.batch;
  while (true) {
    batch.clear();

    // Open a micro-batch: block for the first request, then linger for
    // more while the batch holds fewer than max_batch samples.  The
    // linger budget adapts to queue depth (shallow queue → short wait,
    // so an idle engine adds almost no latency; deep queue → full
    // budget, though a deep queue fills the batch without waiting).
    // Requests ride whole, so one oversized request still scores in a
    // single pass.
    std::unique_ptr<Job> first;
    if (!queue_.pop(first)) return;  // closed and drained
    std::size_t sample_count = first->batch.rows;
    batch.push_back(std::move(first));
    const double depth_frac = std::min(
        1.0, static_cast<double>(queue_.size() + 1) /
                 static_cast<double>(options_.max_batch));
    const auto linger = std::chrono::nanoseconds(static_cast<long long>(
        options_.max_wait_seconds * depth_frac * 1e9));
    const auto deadline = clock::now() + linger;
    while (sample_count < options_.max_batch) {
      std::unique_ptr<Job> next;
      if (queue_.pop_wait_until(next, deadline) != PopResult::kItem) break;
      sample_count += next->batch.rows;
      batch.push_back(std::move(next));
    }
    stats_.queue_depth.set(static_cast<double>(queue_.size()));
    stats_.batch_occupancy.record(occupancy(sample_count));

    // Group by model snapshot (pointer identity — a hot-swap installs a
    // new snapshot, so mixed traffic around a swap splits cleanly) in
    // one stable pass: batches hold at most a handful of distinct
    // snapshots, so the key scan is a short linear probe.
    scratch.group_keys.clear();
    for (const std::unique_ptr<Job>& job : batch) {
      const ModelSnapshot* key = job->model.get();
      std::size_t g = 0;
      while (g < scratch.group_keys.size() &&
             scratch.group_keys[g] != key) {
        ++g;
      }
      if (g == scratch.group_keys.size()) {
        scratch.group_keys.push_back(key);
        if (scratch.groups.size() < scratch.group_keys.size()) {
          scratch.groups.emplace_back();
        }
        scratch.groups[g].clear();
      }
      scratch.groups[g].push_back(job.get());
    }
    for (std::size_t g = 0; g < scratch.group_keys.size(); ++g) {
      score_group(*scratch.groups[g].front()->model, scratch.groups[g],
                  scratch);
    }
  }
}

void InferenceEngine::score_group(const ModelSnapshot& model,
                                  std::vector<Job*>& group,
                                  WorkerScratch& scratch) {
  obs::ScopedSpan span(tracer_, "engine.batch");
  for (const Job* job : group) {
    stats_.queue_wait.record(job->submitted.seconds());
  }

  support::WallTimer exec;
  std::size_t rows = 0;
  if (group.size() == 1) {
    // Single-request group: score straight into the job's result
    // buffer — no merge, no copy.
    Job* job = group.front();
    job->results.resize(job->batch.rows);
    model.scorer.score(job->batch, job->results.data());
    rows = job->batch.rows;
  } else {
    // Multi-request group: restripe the per-request tiles into one
    // contiguous batch (word moves, no re-quantization), score once,
    // then copy each request's span back into its reply.
    scratch.merged.clear();
    for (const Job* job : group) scratch.merged.append_packed(job->batch);
    scratch.scored.resize(scratch.merged.rows);
    model.scorer.score(scratch.merged, scratch.scored.data());
    std::size_t offset = 0;
    for (Job* job : group) {
      const std::size_t n = job->batch.rows;
      job->results.assign(scratch.scored.begin() + offset,
                          scratch.scored.begin() + offset + n);
      offset += n;
    }
    rows = scratch.merged.rows;
  }
  stats_.batch_execute.record(exec.seconds());

  // Counters settle before delivery: a caller woken by its future must
  // see this batch already accounted for.
  stats_.batches_scored.increment();
  stats_.samples_scored.add(rows);
  stats_.requests_completed.add(group.size());
  for (Job* job : group) {
    stats_.request_total.record(job->submitted.seconds());
    job->promise.set_value(std::move(job->results));
  }
  group.clear();
}

}  // namespace ldafp::runtime
