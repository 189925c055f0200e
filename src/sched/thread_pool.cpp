#include "sched/thread_pool.h"

#include <utility>

#include "support/error.h"

namespace ldafp::sched {

ThreadPool::ThreadPool(std::size_t threads) {
  LDAFP_CHECK(threads > 0, "thread pool needs at least one worker");
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    drain_and_join();  // nothing was submitted: just joins the workers
    throw;
  }
}

ThreadPool::~ThreadPool() { drain_and_join(); }

void ThreadPool::drain_and_join() {
  {
    // Drain before stopping: a running task may still submit work and
    // then wait for it, and that work needs a live worker to run it.
    // Once the queue is empty and nothing runs, nothing can submit.
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return tasks_.empty() && running_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  LDAFP_CHECK(task != nullptr, "cannot submit a null task");
  {
    std::lock_guard lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::run_front(std::unique_lock<std::mutex>& lock) {
  {
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    ++running_;
    lock.unlock();
    task();  // tasks must not throw (TaskGroup wraps user code)
  }  // the task's captures die before the pool can report idle
  lock.lock();
  if (--running_ == 0 && tasks_.empty()) idle_cv_.notify_all();
}

bool ThreadPool::try_run_one() {
  std::unique_lock lock(mu_);
  if (tasks_.empty()) return false;
  run_front(lock);
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stopped, and the destructor drained
    run_front(lock);
  }
}

}  // namespace ldafp::sched
