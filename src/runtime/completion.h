// Completion-driven request lifecycle: pooled request records, an MPSC
// completion queue with an eventfd doorbell, and a per-consumer
// freelist (DESIGN.md §15).
//
// The future-based submit path allocates a promise/future pair per
// request and forces the consumer to *poll* readiness — the epoll serve
// loops used to spin at zero timeout whenever any future was
// outstanding.  This module inverts the flow: a request travels as one
// heap RequestBlock for its whole life (ingest → engine queue → scoring
// → completion queue → response encode → freelist), and the engine
// *pushes* finished blocks onto the submitter's CompletionQueue, ringing
// its eventfd so an epoll loop wakes exactly when replies exist.
//
// Ownership protocol (who may touch a block):
//   1. The producer fills model/batch and calls
//      InferenceEngine::submit(block).  On kAccepted the engine owns the
//      block; on any rejection ownership never left the caller.
//   2. A worker scores it and hands it to exactly one of: the
//      completion queue (block->completions), the adapter promise
//      (block->promise), or — when the queue is already gone — delete.
//   3. The queue consumer drains FIFO batches and, after encoding the
//      reply, recycles the block through its single-threaded
//      RequestPool.
// A block is therefore owned by exactly one side at every instant, and
// every accepted block completes exactly once
// (tests/runtime/completion_test.cpp holds this under TSan across
// shutdown-drain, hot-swap, and queue-full paths).
//
// Lifetime of the queue itself: consumers hold it by shared_ptr and
// blocks reference it weakly, so an engine still draining after the
// serving loop tore down cannot dangle — a failed weak lock (or a push
// into an abandon()ed queue) deletes the block instead of delivering it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "runtime/batch_scorer.h"
#include "runtime/registry.h"
#include "support/timer.h"

namespace ldafp::runtime {

class CompletionQueue;

/// One request's whole lifecycle in a single pooled record.  The
/// intrusive `next` link threads it through the engine queue, the
/// completion stack, and the freelist without any per-hop allocation.
struct RequestBlock {
  RequestBlock() { live_.fetch_add(1, std::memory_order_relaxed); }
  ~RequestBlock() { live_.fetch_sub(1, std::memory_order_relaxed); }

  RequestBlock(const RequestBlock&) = delete;
  RequestBlock& operator=(const RequestBlock&) = delete;

  /// Intrusive link; meaning depends on which list currently owns the
  /// block (completion stack or freelist).  Null while in flight.
  RequestBlock* next = nullptr;

  /// Snapshot the request was admitted against (grouping key; keeps the
  /// model alive through scoring).
  ModelHandle model;
  /// Quantized samples, packed at ingest (pack_from_f64_le /
  /// pack_into).  Capacity survives recycling.
  PackedBatch batch;
  /// One result per batch row, filled by the scoring worker.
  std::vector<ScoreResult> results;

  /// Delivery target: the submitter's completion queue.  Empty on the
  /// adapter path (then `promise` is set instead).
  std::weak_ptr<CompletionQueue> completions;
  /// Future-based adapter delivery; null on the completion-queue path,
  /// so serve-path blocks never pay the promise allocation.
  std::unique_ptr<std::promise<std::vector<ScoreResult>>> promise;

  /// Consumer-side routing cookie (the serving loop maps it back to the
  /// connection that submitted the block; 0 = unrouted).
  std::uint64_t conn_id = 0;
  /// Consumer-side pipeline position (the serving connection's request
  /// sequence number, which indexes its pending queue).
  std::uint64_t seq = 0;
  /// Started at admission; measures queue wait + execution.
  support::WallTimer submitted;

  /// Resets request state for freelist reuse, keeping buffer capacity.
  void reset();

  /// Live block count (leak canary for tests).
  static std::int64_t live() {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<std::int64_t> live_;
};

/// MPSC queue of finished RequestBlocks with an eventfd doorbell.
///
/// Producers (engine workers) push with a lock-free Treiber stack and
/// ring `event_fd()` only on the empty→non-empty transition, so a
/// worker delivering a whole batch costs one syscall.  The single
/// consumer registers `event_fd()` in its epoll set, and on wake calls
/// consume_signal() then drain(); the eventfd is level-triggered from
/// epoll's point of view (counter > 0 keeps it readable), so a push
/// racing the drain simply wakes the consumer again.
class CompletionQueue {
 public:
  /// Throws IoError when the eventfd cannot be created.
  CompletionQueue();
  /// Deletes any undrained blocks (teardown path) and closes the fd.
  ~CompletionQueue();

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// The doorbell fd (owned; register EPOLLIN on it, never close it).
  int event_fd() const { return event_fd_; }

  /// Delivers one finished block (thread-safe, lock-free).  After
  /// abandon() the block is deleted instead — the consumer is gone.
  void push(RequestBlock* block);

  /// Consumer only: detaches the whole pending list and returns it in
  /// FIFO order (walk via block->next; null-terminated).
  RequestBlock* drain();

  /// Consumer only: clears the doorbell (call on EPOLLIN, before
  /// drain()).
  void consume_signal();

  /// Marks the consumer as gone: concurrent and future pushes delete
  /// their block, and anything already queued is deleted here.  Called
  /// by the serving loop at teardown, before it drops its reference.
  void abandon();

  /// Total blocks ever pushed (includes abandoned ones; telemetry/test
  /// hook).
  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }

 private:
  void delete_list(RequestBlock* head);

  int event_fd_ = -1;
  std::atomic<RequestBlock*> head_{nullptr};
  std::atomic<bool> abandoned_{false};
  std::atomic<std::uint64_t> pushed_{0};
};

/// Single-threaded freelist of RequestBlocks.  One pool lives in each
/// serving event loop (and in each test fixture); because a loop's
/// connections are owned by exactly one thread, acquire/recycle need no
/// locking.  Bounded so a burst cannot pin memory forever.
class RequestPool {
 public:
  explicit RequestPool(std::size_t max_free = 4096) : max_free_(max_free) {}
  ~RequestPool();

  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// A reset block, recycled when available, freshly allocated when not.
  RequestBlock* acquire();

  /// Returns a block to the freelist (deleted when the pool is full).
  void recycle(RequestBlock* block);

  std::size_t free_count() const { return free_count_; }

 private:
  RequestBlock* free_ = nullptr;
  std::size_t free_count_ = 0;
  std::size_t max_free_;
};

}  // namespace ldafp::runtime
