#include "runtime/stats.h"

namespace ldafp::runtime {

RuntimeStats::RuntimeStats(obs::MetricsRegistry* registry)
    : owned_(registry != nullptr ? nullptr
                                 : std::make_unique<obs::MetricsRegistry>()),
      registry_(registry != nullptr ? registry : owned_.get()),
      requests_submitted(registry_->counter("runtime.requests_submitted")),
      requests_rejected(registry_->counter("runtime.requests_rejected")),
      requests_completed(registry_->counter("runtime.requests_completed")),
      samples_scored(registry_->counter("runtime.samples_scored")),
      batches_scored(registry_->counter("runtime.batches_scored")),
      queue_depth(registry_->gauge("runtime.queue_depth")),
      queue_capacity(registry_->gauge("runtime.queue_capacity")),
      queue_depth_high_water(
          registry_->gauge("runtime.queue_depth_high_water")),
      queue_wait(registry_->histogram("runtime.queue_wait")),
      batch_execute(registry_->histogram("runtime.batch_execute")),
      request_total(registry_->histogram("runtime.request_total")),
      batch_occupancy(registry_->histogram("runtime.batch_occupancy", {},
                                           obs::Histogram::Unit::kRatio)),
      mean_batch_size_gauge_(
          registry_->gauge("runtime.mean_batch_size")) {}

double RuntimeStats::mean_batch_size() const {
  const std::uint64_t batches = batches_scored.load();
  if (batches == 0) return 0.0;
  return static_cast<double>(samples_scored.load()) /
         static_cast<double>(batches);
}

obs::MetricsSnapshot RuntimeStats::snapshot() const {
  mean_batch_size_gauge_.set(mean_batch_size());
  return registry_->snapshot();
}

}  // namespace ldafp::runtime
