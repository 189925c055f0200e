// Fixed-size thread pool — the execution substrate shared by the
// parallel branch-and-bound driver and the experiment sweeps.
//
// One FIFO task deque under one mutex, with one condition variable that
// wakes workers and one that wakes the draining destructor.  Every task
// here is 50 µs or more of work (a speculative node expansion, a CV
// trial), so the lock is invisible in profiles and per-worker deques
// with stealing would buy nothing.
//
// The pool never blocks a caller: submit() enqueues and returns, and
// try_run_one() lets *any* thread (a TaskGroup waiter, the B&B control
// thread) execute one queued task inline — this "helping" is what makes
// nested fork/join on one shared pool deadlock-free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ldafp::sched {

/// Fixed-size single-queue pool.  All methods are thread-safe.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Finishes every task already submitted, including work a running
  /// task submits, then joins the workers.  Submitting from outside the
  /// pool concurrently with destruction is undefined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task at the back of the queue.
  void submit(std::function<void()> task);

  /// Runs the oldest queued task on the calling thread, if any.  Returns
  /// false when the queue is empty.  Safe from any thread; waiters use
  /// it to help instead of blocking.
  bool try_run_one();

 private:
  using Task = std::function<void()>;

  void worker_loop();
  /// Pops the front task and runs it with `lock` released; reacquires
  /// `lock` before returning.
  void run_front(std::unique_lock<std::mutex>& lock);
  void drain_and_join();

  std::mutex mu_;
  std::deque<Task> tasks_;           ///< guarded by mu_
  std::size_t running_ = 0;          ///< tasks popped, not finished; mu_
  bool stop_ = false;                ///< guarded by mu_
  std::condition_variable work_cv_;  ///< tasks_ non-empty or stop_
  std::condition_variable idle_cv_;  ///< tasks_ empty and running_ == 0
  std::vector<std::thread> workers_;  ///< last: the workers use the above
};

}  // namespace ldafp::sched
