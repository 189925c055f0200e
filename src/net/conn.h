// Per-connection serving state machine (sans-I/O core + socket shims).
//
// A Connection owns one client's byte streams and its pipeline of
// in-flight requests.  The protocol work — reassembling partial frames,
// dispatching decoded requests into the engine, and emitting responses
// *in request order* even though completions arrive out of order — is
// pure buffer-to-buffer logic driven through ingest()/pump()/
// on_completion(), so tests exercise truncation, pipelining, and
// malformed-frame handling without a socket (tests/net/conn_test.cpp
// feeds byte splits at every offset).  The socket shims
// (on_readable/flush) layer non-blocking recv/send over that core; the
// epoll server owns when they run.
//
// Request lifecycle (the completion-driven hot path): ingest decodes a
// frame as a borrowed view, quantizes the feature payload straight from
// the read buffer into a pooled RequestBlock's PackedBatch
// (BatchScorer::pack_from_f64_le — no per-sample vector allocations,
// no double[] copy), and submits the block.  The engine delivers the
// scored block back through the loop's CompletionQueue; the loop routes
// it here via on_completion(), pump() encodes the response straight
// from the block's results, and the block returns to the loop's
// freelist.  Steady state allocates nothing, on either datapath.
//
// Ordering: every request — accepted or immediately failed — occupies
// one slot in the pending queue, and pump() only ever completes the
// head slot, so responses cannot overtake each other no matter what
// order completions land in.  Each slot has a sequence number (carried
// on its block as RequestBlock::seq), so a completion finds its slot by
// index in O(1) however deep the pipeline is.  Backpressure is explicit
// end to end: engine kQueueFull becomes a REJECTED response (never a
// silent drop), and a client that stops reading while the write buffer
// grows past its bound is disconnected (slow-client protection) rather
// than buffering without limit.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/metrics.h"
#include "net/protocol.h"
#include "runtime/completion.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "support/timer.h"

namespace ldafp::net {

class Connection;

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
  /// answered kShuttingDown instead of entering the engine.
  const std::atomic<bool>* draining = nullptr;
};

/// Per-event-loop serving state shared by the loop's connections: the
/// engine's delivery target (CompletionQueue + eventfd doorbell), the
/// RequestBlock freelist, and the conn-id routing table.  Everything
/// here is single-threaded by construction — exactly one loop thread
/// (or one test thread) touches it — except the CompletionQueue, whose
/// producer side is the engine's workers.
struct LoopContext {
  LoopContext()
      : completions(std::make_shared<runtime::CompletionQueue>()) {}
  ~LoopContext() { completions->abandon(); }

  LoopContext(const LoopContext&) = delete;
  LoopContext& operator=(const LoopContext&) = delete;

  std::shared_ptr<runtime::CompletionQueue> completions;
  runtime::RequestPool pool;
  /// Routing table: block->conn_id → submitting connection (borrowed;
  /// connections register in their constructor, unregister in their
  /// destructor).
  std::unordered_map<std::uint64_t, Connection*> conns;
  std::uint64_t next_conn_id = 1;

  /// Registers a connection, returning its routing id.
  std::uint64_t adopt(Connection* conn);
  void forget(std::uint64_t id);

  /// Routes every queued completion: blocks whose connection is still
  /// registered land in its pending pipeline (on_completion); orphans —
  /// the submitter closed mid-flight — recycle straight to the pool.
  /// Returns how many blocks were routed.  Call after the completion
  /// eventfd fires (consume_signal first).
  std::size_t drain_completions();
};

/// One client connection: frame reassembly in, ordered responses out.
class Connection {
 public:
  /// `fd` may be -1 for sans-I/O use (tests); the fd is borrowed — the
  /// server owns accept/close.  `loop` (borrowed, required) is the
  /// event loop's completion queue, block pool and routing table.
  Connection(int fd, const ServeContext* ctx, LoopContext* loop);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // -- socket shims (fd >= 0) --

  /// Drains the socket (non-blocking) through ingest().  EOF or a fatal
  /// socket error marks the connection dead.
  void on_readable();

  /// Sends as much buffered response data as the socket accepts.
  void flush();

  // -- sans-I/O core --

  /// Feeds `n` raw stream bytes: reassembles frames, dispatches each
  /// complete request, and on a framing error enqueues the terminal
  /// kProtocolError response and stops consuming input.
  void ingest(const std::uint8_t* data, std::size_t n);

  /// Accepts a scored block back from the loop's completion router,
  /// marking its pending slot ready (ownership of the block returns to
  /// this connection until pump() recycles it).
  void on_completion(runtime::RequestBlock* block);

  /// Completes head-of-line pending requests whose results are ready,
  /// encoding their responses into the write buffer.  Returns true when
  /// at least one response was encoded (the server uses this to decide
  /// whether another flush attempt is worthwhile).
  bool pump();

  // -- lifecycle state --

  /// In-flight requests (slots awaiting an engine result or encode).
  std::size_t pending_count() const { return pending_.size(); }
  /// Unflushed encoded bytes.
  std::size_t unflushed_bytes() const { return wbuf_.size() - wpos_; }
  bool wants_write() const { return unflushed_bytes() > 0; }
  /// True once the connection must be torn down immediately.
  bool dead() const { return dead_; }
  /// Condemns the connection (peer hangup/error seen by the server);
  /// the owning loop reaps it via finished() after the event batch.
  void mark_dead() { dead_ = true; }
  /// True when the connection should close after the buffer flushes
  /// (protocol error or shutdown notice already encoded).
  bool close_after_flush() const { return close_after_flush_; }
  /// Dead, or draining a terminal response with nothing left to send.
  bool finished() const {
    return dead_ || (close_after_flush_ && !wants_write() &&
                     pending_.empty());
  }

  int fd() const { return fd_; }
  /// Completion-routing id in the loop's table.
  std::uint64_t conn_id() const { return conn_id_; }

  // -- test hooks --

  /// The unflushed output bytes (valid until the next pump/flush).
  const std::uint8_t* output_data() const { return wbuf_.data() + wpos_; }
  /// Consumes `n` output bytes as if the socket had accepted them.
  void consume_output(std::size_t n);

 private:
  struct Pending {
    ScoreResponse response;             ///< prefilled unless admitted
    bool immediate = false;             ///< response ready at enqueue
    bool ready = false;                 ///< completion landed
    runtime::ModelHandle model;         ///< null for immediate failures
    /// Admitted request's block.  While !ready the engine owns it and
    /// this pointer is only a matching cookie; once ready it is ours
    /// until pump() recycles it.
    runtime::RequestBlock* block = nullptr;
    support::WallTimer started;         ///< frame decoded -> encoded
  };

  void handle_request(const ScoreRequestView& request);
  /// Pre-admission validation; resolves `model` and returns kOk when
  /// the request may proceed to the engine.
  ResponseStatus admission_check(const ScoreRequestView& request,
                                 runtime::ModelHandle& model);
  void enqueue_immediate(std::uint64_t request_id, ResponseStatus status,
                         const runtime::ModelHandle& model);
  void fail_protocol(FrameError error);
  void encode_response(Pending& pending);

  int fd_;
  const ServeContext* ctx_;
  LoopContext* loop_;
  std::uint64_t conn_id_ = 0;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;
  std::vector<std::uint8_t> wbuf_;
  std::size_t wpos_ = 0;
  std::deque<Pending> pending_;
  /// Sequence number of pending_.front(); slot i holds request
  /// head_seq_ + i.
  std::uint64_t head_seq_ = 0;
  bool close_after_flush_ = false;
  bool dead_ = false;
};

}  // namespace ldafp::net
