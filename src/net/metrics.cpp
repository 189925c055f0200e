#include "net/metrics.h"

namespace ldafp::net {

NetMetrics::NetMetrics(obs::MetricsRegistry* registry)
    : owned_(registry != nullptr ? nullptr
                                 : std::make_unique<obs::MetricsRegistry>()),
      registry_(registry != nullptr ? registry : owned_.get()),
      connections_opened(registry_->counter("net.connections_opened")),
      connections_closed(registry_->counter("net.connections_closed")),
      slow_client_disconnects(
          registry_->counter("net.slow_client_disconnects")),
      accepted(registry_->counter("net.accepted")),
      responses_sent(registry_->counter("net.responses_sent")),
      protocol_errors(registry_->counter("net.protocol_errors")),
      bytes_rx(registry_->counter("net.bytes_rx")),
      bytes_tx(registry_->counter("net.bytes_tx")),
      loop_wakeups(registry_->counter("net.loop_wakeups")),
      serve_latency(registry_->histogram("net.serve_latency")),
      serve_stage_pack(
          registry_->histogram("net.serve_stage", {{"stage", "pack"}})),
      serve_stage_score(
          registry_->histogram("net.serve_stage", {{"stage", "score"}})),
      serve_stage_encode(
          registry_->histogram("net.serve_stage", {{"stage", "encode"}})),
      rejected_queue_full_(registry_->counter(
          "net.rejected", {{"reason", "queue-full"}})),
      rejected_unknown_model_(registry_->counter(
          "net.rejected", {{"reason", "unknown-model"}})),
      rejected_invalid_request_(registry_->counter(
          "net.rejected", {{"reason", "invalid-request"}})),
      rejected_format_mismatch_(registry_->counter(
          "net.rejected", {{"reason", "format-mismatch"}})),
      rejected_shutting_down_(registry_->counter(
          "net.rejected", {{"reason", "shutting-down"}})),
      rejected_internal_(registry_->counter(
          "net.rejected", {{"reason", "internal"}})) {}

obs::Counter& NetMetrics::rejected(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kRejected: return rejected_queue_full_;
    case ResponseStatus::kUnknownModel: return rejected_unknown_model_;
    case ResponseStatus::kInvalidRequest: return rejected_invalid_request_;
    case ResponseStatus::kFormatMismatch: return rejected_format_mismatch_;
    case ResponseStatus::kShuttingDown: return rejected_shutting_down_;
    case ResponseStatus::kOk:
    case ResponseStatus::kProtocolError:
    case ResponseStatus::kInternalError: break;
  }
  return rejected_internal_;
}

}  // namespace ldafp::net
