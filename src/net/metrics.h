// The `net.*` metric identities of the serving front-end.
//
// Mirrors runtime::RuntimeStats: one NetMetrics block binds every
// handle the transport records into a caller-supplied (or private)
// obs::MetricsRegistry, so the server exports under the same registry
// as the engine's "runtime.*" block and one snapshot covers the whole
// serving pipeline.  Rejection counters are labeled by reason —
// "net.rejected{reason=queue-full}" et al. — which is what lets
// bench/serve_load assert exact accounting: every request the server
// ever saw is in net.accepted, exactly one net.rejected{reason=...},
// or net.protocol_errors.
#pragma once

#include <memory>

#include "net/protocol.h"
#include "obs/metrics.h"

namespace ldafp::net {

/// Counter/gauge/histogram block of one Server.
class NetMetrics {
  // Registry storage first: the handles below bind into it at
  // construction, and members initialize in declaration order.
  std::unique_ptr<obs::MetricsRegistry> owned_;
  obs::MetricsRegistry* registry_;

 public:
  /// Binds the handles into `registry` ("net.*" names); owns a private
  /// registry when null.
  explicit NetMetrics(obs::MetricsRegistry* registry = nullptr);

  NetMetrics(const NetMetrics&) = delete;
  NetMetrics& operator=(const NetMetrics&) = delete;

  // -- connection lifecycle --
  obs::Counter& connections_opened;
  obs::Counter& connections_closed;
  /// Slow clients disconnected for exceeding the write-buffer bound.
  obs::Counter& slow_client_disconnects;

  // -- request admission --
  obs::Counter& accepted;         ///< requests admitted and scored
  obs::Counter& responses_sent;   ///< complete response frames flushed
  /// Unrecoverable framing errors (stream torn down afterwards).
  obs::Counter& protocol_errors;

  // -- bytes on the wire --
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;

  // -- event-loop behaviour --
  /// epoll_wait returns across all loops.  The no-busy-poll invariant:
  /// this stays proportional to I/O events, not to wall time
  /// (tests/net/server_test.cpp bounds it against responses_sent).
  obs::Counter& loop_wakeups;

  // -- latency (seconds) --
  /// Request frame fully decoded -> response frame fully encoded (the
  /// server-side end-to-end view; clients measure the wire round trip).
  obs::Histogram& serve_latency;
  /// serve_latency split at the packed and scored stamps, as
  /// "net.serve_stage{stage=pack|score|encode}": admission + quantize,
  /// scoring, encode.  Adjacent stamps telescope, so the three means
  /// sum to serve_latency's mean.
  obs::Histogram& serve_stage_pack;
  obs::Histogram& serve_stage_score;
  obs::Histogram& serve_stage_encode;

  /// "net.rejected{reason=...}" counter for one non-ok outcome.
  obs::Counter& rejected(ResponseStatus status);

  const obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  obs::Counter& rejected_queue_full_;
  obs::Counter& rejected_unknown_model_;
  obs::Counter& rejected_invalid_request_;
  obs::Counter& rejected_format_mismatch_;
  obs::Counter& rejected_shutting_down_;
  obs::Counter& rejected_internal_;
};

}  // namespace ldafp::net
