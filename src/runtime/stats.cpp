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
      queue_wait(registry_->histogram("runtime.queue_wait")),
      batch_execute(registry_->histogram("runtime.batch_execute")),
      request_total(registry_->histogram("runtime.request_total")) {}

}  // namespace ldafp::runtime
