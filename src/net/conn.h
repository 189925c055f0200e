// Per-connection serving state machine (sans-I/O core + socket shims).
//
// A Connection owns one client's byte streams.  The protocol work —
// reassembling partial frames, admitting, packing, scoring and encoding
// each decoded request — is pure buffer-to-buffer logic driven through
// ingest(), so tests exercise truncation, pipelining, and
// malformed-frame handling without a socket (tests/net/conn_test.cpp
// feeds byte splits at every offset).  The socket shims
// (on_readable/flush) layer non-blocking recv/send over that core; the
// epoll server owns when they run.
//
// Request lifecycle (run to completion, DESIGN.md §15): ingest decodes
// a frame as a borrowed view of the read buffer, admits it (model
// resolve, shape and format checks, drain flag), quantizes the feature
// payload straight from the wire bytes into the loop's one PackedBatch
// (BatchScorer::pack_from_f64_le), scores it through the engine's
// synchronous InferenceEngine::score into the loop's result buffer, and
// encodes the response into the write buffer — all before the next
// frame is decoded.  Nothing crosses a thread and nothing waits, so
// responses leave in request order by construction, and steady state
// allocates nothing: every buffer keeps its capacity.
//
// Each response stamps the steady clock four times — decoded, packed,
// scored, encoded — and records the three gaps as
// net.serve_stage{stage=pack|score|encode}, which sum to
// net.serve_latency.  A request that fails before scoring stamps
// packed = scored at the failure, so its time lands in `pack` and
// `encode`.
//
// Overload is explicit: a client that stops reading while the write
// buffer grows past its bound is disconnected (slow-client protection)
// rather than buffered without limit, and a client that sends faster
// than the loop scores is held back by TCP flow control, because the
// loop reads one chunk per readiness event.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/metrics.h"
#include "net/protocol.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace ldafp::net {

/// Shared serving dependencies a connection dispatches into (all
/// borrowed from the server; engine/registry/metrics are thread-safe).
struct ServeContext {
  runtime::InferenceEngine* engine = nullptr;
  runtime::ModelRegistry* registry = nullptr;
  NetMetrics* metrics = nullptr;
  /// Model served when a request names none.
  std::string default_model;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Unflushed response bytes beyond this disconnect the client.
  std::size_t max_write_buffer = 4u << 20;
  /// Server-wide drain flag: set during shutdown so new requests are
  /// answered kShuttingDown instead of being scored.
  const std::atomic<bool>* draining = nullptr;
};

/// Per-event-loop scoring scratch shared by the loop's connections: the
/// packed batch and the result buffer every request is scored through.
/// A request is finished before the next one starts, so one of each per
/// loop suffices; single-threaded by construction (one loop thread, or
/// one test thread).
struct LoopContext {
  runtime::PackedBatch batch;
  std::vector<runtime::ScoreResult> results;
};

/// One client connection: frame reassembly in, ordered responses out.
class Connection {
 public:
  /// `fd` may be -1 for sans-I/O use (tests); the fd is borrowed — the
  /// server owns accept/close.  `loop` (borrowed, required) is the
  /// event loop's scoring scratch.
  Connection(int fd, const ServeContext* ctx, LoopContext* loop);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // -- socket shims (fd >= 0) --

  /// Reads one chunk (non-blocking) through ingest().  One recv per
  /// readiness event keeps a pipelining client from holding the loop:
  /// epoll is level-triggered, so unread bytes report the connection
  /// again on the next wakeup, after the loop's other connections.
  /// EOF or a fatal socket error marks the connection dead.
  void on_readable();

  /// Sends as much buffered response data as the socket accepts.
  void flush();

  // -- sans-I/O core --

  /// Feeds `n` raw stream bytes: reassembles frames, serves each
  /// complete request into the write buffer, and on a framing error
  /// encodes the terminal kProtocolError response and stops consuming
  /// input.
  void ingest(const std::uint8_t* data, std::size_t n);

  // -- lifecycle state --

  /// Unflushed encoded bytes.
  std::size_t unflushed_bytes() const { return wbuf_.size() - wpos_; }
  bool wants_write() const { return unflushed_bytes() > 0; }
  /// True once the connection must be torn down immediately.
  bool dead() const { return dead_; }
  /// Condemns the connection (peer hangup/error seen by the server);
  /// the owning loop reaps it after the event batch.
  void mark_dead() { dead_ = true; }
  /// True when the connection should close after the buffer flushes
  /// (protocol error already encoded).
  bool close_after_flush() const { return close_after_flush_; }
  /// Dead, or draining a terminal response with nothing left to send.
  bool finished() const {
    return dead_ || (close_after_flush_ && !wants_write());
  }

  int fd() const { return fd_; }

  // -- test hooks --

  /// The unflushed output bytes (valid until the next ingest/flush).
  const std::uint8_t* output_data() const { return wbuf_.data() + wpos_; }
  /// Consumes `n` output bytes as if the socket had accepted them.
  void consume_output(std::size_t n);

 private:
  using Clock = std::chrono::steady_clock;

  void handle_request(const ScoreRequestView& request,
                      Clock::time_point decoded);
  /// Pre-admission validation; resolves `model` and returns kOk when
  /// the request may be packed and scored.
  ResponseStatus admission_check(const ScoreRequestView& request,
                                 runtime::ModelHandle& model);
  /// Encodes a result-less response decided at `decided`.
  void respond_now(const ScoreResponse& response,
                   Clock::time_point decoded, Clock::time_point decided);
  void fail_protocol();
  /// Stamps `encoded`, records the stage and latency histograms, and
  /// enforces the write-buffer bound.
  void finish_response(Clock::time_point decoded, Clock::time_point packed,
                       Clock::time_point scored);

  int fd_;
  const ServeContext* ctx_;
  LoopContext* loop_;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;
  std::vector<std::uint8_t> wbuf_;
  std::size_t wpos_ = 0;
  bool close_after_flush_ = false;
  bool dead_ = false;
};

}  // namespace ldafp::net
