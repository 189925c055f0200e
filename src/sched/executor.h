// Executor: the cheap, copyable seam through which callers opt into
// parallelism.
//
// A default-constructed Executor is *inline* — threads() == 1, TaskGroup
// runs each task on the spot and parallel_map is the plain sequential
// loop, so embedding an Executor in an options struct (BnbOptions,
// ExperimentConfig) changes nothing until a caller explicitly asks for a
// pool with Executor::pooled.  A pooled Executor shares ownership of one
// ThreadPool; copies share the same workers, so the sweep layer and the
// branch-and-bound layer can hand the same pool around without
// oversubscribing the machine.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>

#include "sched/thread_pool.h"

namespace ldafp::sched {

/// Shared handle on an execution resource (inline or pooled).
class Executor {
 public:
  /// Inline executor: parallel helpers run on the calling thread.
  Executor() = default;

  /// Executor backed by a pool of `threads` workers.  `threads` == 0
  /// means std::thread::hardware_concurrency() (1 when unknown);
  /// `threads` <= 1 returns an inline executor (no pool, identical
  /// behaviour to sequential).
  static Executor pooled(std::size_t threads) {
    if (threads == 0) threads = std::thread::hardware_concurrency();
    Executor ex;
    if (threads > 1) ex.pool_ = std::make_shared<ThreadPool>(threads);
    return ex;
  }

  /// Worker count: 1 for inline executors.
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }

  /// True when backed by a pool.
  bool parallel() const { return pool_ != nullptr; }

  /// The pool, or nullptr for inline executors.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace ldafp::sched
