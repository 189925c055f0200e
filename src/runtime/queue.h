// Bounded MPMC queue with backpressure — the admission control point of
// the inference engine's future adapter.
//
// Producers use try_push only: a full queue is an immediate, explicit
// rejection (the caller gets a status and can shed load upstream), never
// an unbounded buffer or a blocked client thread.  Consumers block, and
// pop_until supports the engine's micro-batching policy: take what is
// there, then linger up to a deadline for more to amortize per-batch
// overhead.  close() starts the drain phase — pushes fail fast while
// consumers keep popping until the queue is empty.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "support/error.h"

namespace ldafp::runtime {

/// Outcome of a non-blocking push.
enum class PushResult {
  kOk,      ///< enqueued
  kFull,    ///< at capacity — caller should shed or retry later
  kClosed,  ///< queue closed (engine shutting down)
};

/// Outcome of a timed pop.
enum class PopResult {
  kItem,     ///< one item dequeued
  kTimeout,  ///< deadline hit while empty (queue still open)
  kClosed,   ///< closed and fully drained
};

/// Mutex/condvar bounded queue.  All methods are thread-safe.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    LDAFP_CHECK(capacity > 0, "queue capacity must be positive");
  }

  /// Non-blocking enqueue with explicit backpressure.
  PushResult try_push(T&& item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    ready_.notify_one();
    return PushResult::kOk;
  }

  /// Blocking dequeue.  False only when the queue is closed and drained.
  bool pop(T& out) {
    std::unique_lock lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Timed dequeue for the micro-batcher's linger phase: takes an item
  /// if one is (or becomes) available before `deadline`.  A past
  /// deadline still drains already-queued items without waiting.
  template <typename Clock, typename Duration>
  PopResult pop_wait_until(
      T& out, std::chrono::time_point<Clock, Duration> deadline) {
    std::unique_lock lock(mu_);
    ready_.wait_until(lock, deadline,
                      [this] { return closed_ || !items_.empty(); });
    if (!items_.empty()) {
      out = std::move(items_.front());
      items_.pop_front();
      return PopResult::kItem;
    }
    return closed_ ? PopResult::kClosed : PopResult::kTimeout;
  }

  /// Closes the queue: subsequent pushes fail with kClosed, consumers
  /// drain the remaining items and then see pop() == false.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  /// Deepest the queue has ever been (backpressure telemetry).
  std::size_t high_water_mark() const {
    std::lock_guard lock(mu_);
    return high_water_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace ldafp::runtime
