#include "runtime/completion.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include "support/error.h"

namespace ldafp::runtime {

std::atomic<std::int64_t> RequestBlock::live_{0};

void RequestBlock::reset() {
  next = nullptr;
  model.reset();
  batch.clear();      // keeps word capacity
  results.clear();    // keeps result capacity
  completions.reset();
  promise.reset();
  conn_id = 0;
  seq = 0;
}

CompletionQueue::CompletionQueue() {
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) throw IoError("eventfd() failed for completion queue");
}

CompletionQueue::~CompletionQueue() {
  delete_list(head_.exchange(nullptr, std::memory_order_acquire));
  ::close(event_fd_);
}

void CompletionQueue::push(RequestBlock* block) {
  pushed_.fetch_add(1, std::memory_order_relaxed);
  if (abandoned_.load(std::memory_order_acquire)) {
    delete block;
    return;
  }
  // The old head is latched in a local: once the CAS lands the block
  // belongs to the consumer, which rewrites `next` while reversing the
  // drained list — reading `block->next` back after publication would
  // race that reversal.
  RequestBlock* old_head = head_.load(std::memory_order_relaxed);
  do {
    block->next = old_head;
  } while (!head_.compare_exchange_weak(old_head, block,
                                        std::memory_order_release,
                                        std::memory_order_relaxed));
  // abandon() may have swept the stack between the check above and the
  // CAS landing; re-check and sweep again so the block cannot strand.
  if (abandoned_.load(std::memory_order_acquire)) {
    delete_list(head_.exchange(nullptr, std::memory_order_acquire));
    return;
  }
  if (old_head == nullptr) {
    // Empty→non-empty transition: ring the doorbell once per burst.
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

RequestBlock* CompletionQueue::drain() {
  RequestBlock* head = head_.exchange(nullptr, std::memory_order_acquire);
  // The stack pops LIFO; reverse in place so the consumer sees pushes
  // in FIFO order (head-of-line response ordering relies on nothing
  // here — conn matching is by block — but FIFO keeps latency fair).
  RequestBlock* fifo = nullptr;
  while (head != nullptr) {
    RequestBlock* next = head->next;
    head->next = fifo;
    fifo = head;
    head = next;
  }
  return fifo;
}

void CompletionQueue::consume_signal() {
  std::uint64_t drained = 0;
  [[maybe_unused]] ssize_t n =
      ::read(event_fd_, &drained, sizeof(drained));
}

void CompletionQueue::abandon() {
  abandoned_.store(true, std::memory_order_release);
  delete_list(head_.exchange(nullptr, std::memory_order_acquire));
}

void CompletionQueue::delete_list(RequestBlock* head) {
  while (head != nullptr) {
    RequestBlock* next = head->next;
    delete head;
    head = next;
  }
}

RequestPool::~RequestPool() {
  while (free_ != nullptr) {
    RequestBlock* next = free_->next;
    delete free_;
    free_ = next;
  }
}

RequestBlock* RequestPool::acquire() {
  if (free_ == nullptr) return new RequestBlock();
  RequestBlock* block = free_;
  free_ = block->next;
  --free_count_;
  block->next = nullptr;
  return block;
}

void RequestPool::recycle(RequestBlock* block) {
  if (block == nullptr) return;
  if (free_count_ >= max_free_) {
    delete block;
    return;
  }
  block->reset();
  block->next = free_;
  free_ = block;
  ++free_count_;
}

}  // namespace ldafp::runtime
