// Non-blocking epoll TCP front-end over the inference engine
// (DESIGN.md §12, §15).
//
// Topology: one listening socket plus `io_threads` event loops, each
// owning a disjoint set of connections (accepted round-robin, handed
// over through an eventfd-signalled inbox), so connection state is
// single-threaded by construction — the only cross-thread traffic is
// the thread-safe engine/registry/metrics trio every loop shares.  The
// engine starts no thread of its own, so a serving process runs the
// loops and nothing else.
// Run to completion: a loop scores each request inside the wakeup that
// read it (Connection::ingest → InferenceEngine::score) and flushes the
// response before it sleeps again, so it blocks in epoll_wait with
// nothing in flight and wakes only for I/O ("net.loop_wakeups" counts
// the wakes; a test bounds them against responses).  Each wakeup
// services only the connections its events touched.
//
// The server serves whatever the ModelRegistry holds: requests route
// by model name (multi-tenant), hot swaps apply at the next request's
// registry resolve, and `default_model` catches requests that name no
// model.  Overload shows as TCP flow control (a loop reads one chunk
// per readiness event) and the write-bound disconnect of clients that
// stop reading; shutdown answers new requests kShuttingDown and waits
// for unflushed bytes before closing; every stage records into the
// NetMetrics block ("net.*" identities).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/conn.h"
#include "net/metrics.h"
#include "obs/sink.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "support/error.h"

namespace ldafp::net {

/// Transport sizing and wiring of one Server.
struct ServerOptions {
  /// IPv4 address to bind (loopback by default — serving beyond the
  /// host is an explicit opt-in).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Event-loop threads (>= 1); connections are spread round-robin.
  std::size_t io_threads = 1;
  /// Per-frame size cap (clamped to protocol kMaxFrameBytes).
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Slow-client bound: unflushed response bytes beyond this close the
  /// connection.
  std::size_t max_write_buffer = 4u << 20;
  /// Model served when a request names none ("" = no default; such
  /// requests fail kUnknownModel).
  std::string default_model;

  /// Scoring engine (borrowed, required, outlives the server); the
  /// loops call its synchronous score().
  runtime::InferenceEngine* engine = nullptr;
  /// Model store (borrowed, required, outlives the server).
  runtime::ModelRegistry* registry = nullptr;
  /// Observability seam: when `sink->metrics` is set the "net.*" block
  /// binds there (alongside the engine's "runtime.*" block when both
  /// share a registry); null = private registry.
  obs::Sink* sink = nullptr;

  /// Checks the wiring; called once by the Server constructor.
  Status validate() const;
};

/// The epoll serving front-end.  start() binds and spawns the loops;
/// stop() drains and joins (also run by the destructor).
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the event loops.  Throws IoError when
  /// the socket cannot be bound.
  void start();

  /// Graceful shutdown: stops accepting, answers new requests with
  /// kShuttingDown, waits up to `drain_seconds` for encoded responses
  /// to flush, then closes every connection and joins the loops.
  /// Idempotent.
  void stop(double drain_seconds = 5.0);

  /// The bound port (resolves option port 0 to the kernel's choice).
  /// Valid after start().
  std::uint16_t port() const { return bound_port_; }

  bool running() const { return started_; }

  /// Live connection count across all loops.
  std::size_t connection_count() const;

  /// The transport's metric block ("net.*").
  const NetMetrics& metrics() const { return metrics_; }

  const ServerOptions& options() const { return options_; }

 private:
  struct Loop;

  void run_loop(Loop& loop, bool is_acceptor);
  void accept_clients(Loop& loop);
  void service_connections(Loop& loop);
  void adopt_inbox(Loop& loop);
  void add_connection(Loop& loop, int fd);
  void close_connection(Loop& loop, int fd);

  ServerOptions options_;
  NetMetrics metrics_;
  ServeContext context_;

  int listen_fd_ = -1;
  /// Reserved fd (open on /dev/null) released under EMFILE/ENFILE so
  /// the acceptor can accept-and-close instead of busy-spinning on the
  /// level-triggered listener while the fd table is exhausted.
  int spare_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  /// steady_clock deadline (seconds since epoch of that clock) the
  /// loops must exit by once stop_ is set; guarded by being written
  /// before stop_ (release) and read after (acquire).
  std::atomic<double> drain_deadline_{0.0};
  bool started_ = false;
};

}  // namespace ldafp::net
