// The exactly-once completion contract (DESIGN.md §15).
//
// Every RequestBlock the engine admits is delivered exactly once — to
// the submitter's CompletionQueue, its adapter promise, or (consumer
// gone) the deleter — across the paths where double-fire or drop bugs
// hide: shutdown while requests are queued, a hot swap racing an
// in-flight batch, and queue-full rejections (which must never
// complete at all).  RequestBlock::live() is the leak canary: a test
// ending with more live blocks than it started with lost one.  The
// suite carries the `runtime` ctest label, so the tsan preset runs the
// concurrent cases under ThreadSanitizer.
#include "runtime/completion.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "support/rng.h"

namespace ldafp::runtime {
namespace {

using linalg::Vector;

core::FixedClassifier random_classifier(std::size_t dim, support::Rng& rng) {
  const fixed::FixedFormat fmt(3, 5);
  Vector w(dim);
  for (std::size_t m = 0; m < dim; ++m) {
    w[m] = fmt.to_real(rng.uniform_int(fmt.raw_min(), fmt.raw_max()));
  }
  return core::FixedClassifier(fmt, w, 0.25);
}

std::vector<Vector> random_samples(std::size_t n, std::size_t dim,
                                   support::Rng& rng) {
  std::vector<Vector> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector x(dim);
    for (std::size_t m = 0; m < dim; ++m) x[m] = rng.uniform(-4.0, 4.0);
    xs.push_back(std::move(x));
  }
  return xs;
}

/// Pool-acquires a block carrying `x` packed against `model`, wired to
/// deliver into `queue`.
RequestBlock* make_block(RequestPool& pool,
                         const std::shared_ptr<CompletionQueue>& queue,
                         const ModelHandle& model, const Vector& x) {
  RequestBlock* block = pool.acquire();
  block->model = model;
  model->scorer.pack_into(block->batch, &x, 1);
  block->completions = queue;
  return block;
}

/// Drains `queue` into a FIFO vector of blocks (consumer side).
std::vector<RequestBlock*> drain_all(CompletionQueue& queue) {
  std::vector<RequestBlock*> out;
  for (RequestBlock* b = queue.drain(); b != nullptr;) {
    RequestBlock* next = b->next;
    b->next = nullptr;
    out.push_back(b);
    b = next;
  }
  return out;
}

TEST(CompletionQueueTest, DrainsFifoAndRingsDoorbellOncePerBurst) {
  CompletionQueue queue;
  std::vector<RequestBlock*> pushed;
  for (int i = 0; i < 3; ++i) {
    auto* b = new RequestBlock();
    pushed.push_back(b);
    queue.push(b);
  }
  // One empty→non-empty transition: the eventfd counter holds exactly
  // one ring no matter how many pushes the burst held.
  std::uint64_t count = 0;
  ASSERT_EQ(::read(queue.event_fd(), &count, sizeof(count)),
            static_cast<ssize_t>(sizeof(count)));
  EXPECT_EQ(count, 1u);

  const auto drained = drain_all(queue);
  ASSERT_EQ(drained.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(drained[i], pushed[i]);

  // Next burst rings again (the queue went empty at drain).
  queue.push(new RequestBlock());
  ASSERT_EQ(::read(queue.event_fd(), &count, sizeof(count)),
            static_cast<ssize_t>(sizeof(count)));
  EXPECT_EQ(count, 1u);
  for (RequestBlock* b : drain_all(queue)) delete b;
  for (RequestBlock* b : drained) delete b;
}

TEST(CompletionQueueTest, AbandonDeletesQueuedAndLaterPushes) {
  const std::int64_t live_before = RequestBlock::live();
  CompletionQueue queue;
  queue.push(new RequestBlock());
  queue.push(new RequestBlock());
  queue.abandon();
  EXPECT_EQ(RequestBlock::live(), live_before);
  // A push that arrives after the consumer left is deleted, not
  // stranded.
  queue.push(new RequestBlock());
  EXPECT_EQ(RequestBlock::live(), live_before);
  EXPECT_EQ(queue.pushed(), 3u);
  EXPECT_EQ(queue.drain(), nullptr);
}

TEST(RequestPoolTest, RecyclesBlocksKeepingCapacityAndBound) {
  const std::int64_t live_before = RequestBlock::live();
  {
    RequestPool pool(/*max_free=*/2);
    RequestBlock* a = pool.acquire();
    a->results.resize(64);
    a->conn_id = 7;
    pool.recycle(a);
    EXPECT_EQ(pool.free_count(), 1u);

    // Reuse returns the same record, reset but with capacity retained.
    RequestBlock* again = pool.acquire();
    EXPECT_EQ(again, a);
    EXPECT_EQ(again->conn_id, 0u);
    EXPECT_TRUE(again->results.empty());
    EXPECT_GE(again->results.capacity(), 64u);

    // The bound: a third recycled block is deleted, not hoarded.
    RequestBlock* b = pool.acquire();
    RequestBlock* c = pool.acquire();
    pool.recycle(again);
    pool.recycle(b);
    pool.recycle(c);
    EXPECT_EQ(pool.free_count(), 2u);
  }
  EXPECT_EQ(RequestBlock::live(), live_before);
}

// Shutdown with a parked engine: every admitted block was still queued
// when shutdown began, so the drain path itself must deliver each one
// exactly once — and bit-identically to the sequential classifier.
TEST(CompletionLifecycleTest, ShutdownDrainDeliversEveryBlockExactlyOnce) {
  const std::int64_t live_before = RequestBlock::live();
  support::Rng rng(21);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(6, rng));
  const auto xs = random_samples(32, 6, rng);
  {
    auto queue = std::make_shared<CompletionQueue>();
    RequestPool pool;
    // One worker: drain order is then admission order, which lets the
    // cross-check below pair result i with sample i.
    InferenceEngine engine({.workers = 1, .queue_capacity = 64});
    engine.pause();
    std::set<RequestBlock*> submitted;
    for (const Vector& x : xs) {
      RequestBlock* block = make_block(pool, queue, model, x);
      ASSERT_EQ(engine.submit(block), SubmitStatus::kAccepted);
      submitted.insert(block);
    }
    engine.shutdown();

    const auto done = drain_all(*queue);
    ASSERT_EQ(done.size(), xs.size());
    std::set<RequestBlock*> seen;
    for (std::size_t i = 0; i < done.size(); ++i) {
      RequestBlock* block = done[i];
      EXPECT_TRUE(submitted.contains(block));
      EXPECT_TRUE(seen.insert(block).second) << "block completed twice";
      ASSERT_EQ(block->results.size(), 1u);
      // Drain preserved push order (admission order here), so result i
      // cross-checks bit-identically against sample i's sequential
      // classification.
      EXPECT_EQ(block->results[0].label, model->classifier.classify(xs[i]));
      EXPECT_EQ(block->results[0].projection_raw,
                model->classifier.project_raw(xs[i]));
      pool.recycle(block);
    }
    queue->abandon();
  }
  EXPECT_EQ(RequestBlock::live(), live_before);
}

// Hot swap racing in-flight blocks: each block scores against the
// snapshot it was admitted with (its own model handle), never the
// newly-installed one.
TEST(CompletionLifecycleTest, HotSwapMidBatchScoresAgainstSubmittedSnapshot) {
  const std::int64_t live_before = RequestBlock::live();
  support::Rng rng(23);
  ModelRegistry registry;
  registry.install("m", random_classifier(8, rng));
  const auto xs = random_samples(48, 8, rng);
  {
    auto queue = std::make_shared<CompletionQueue>();
    RequestPool pool;
    InferenceEngine engine({.workers = 2, .queue_capacity = 64,
                            .max_batch = 8});
    engine.pause();
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i == xs.size() / 2) {
        registry.install("m", random_classifier(8, rng));  // hot swap
      }
      RequestBlock* block =
          make_block(pool, queue, registry.get("m"), xs[i]);
      ASSERT_EQ(engine.submit(block), SubmitStatus::kAccepted);
      ++admitted;
    }
    engine.resume();
    engine.shutdown();

    const auto done = drain_all(*queue);
    ASSERT_EQ(done.size(), admitted);
    for (RequestBlock* block : done) {
      ASSERT_EQ(block->results.size(), 1u);
      // The projection word must come from the block's own snapshot:
      // re-score the packed row through that snapshot's scorer.
      ScoreResult expect;
      block->model->scorer.score(block->batch, &expect);
      EXPECT_EQ(block->results[0].projection_raw, expect.projection_raw);
      EXPECT_EQ(block->results[0].label, expect.label);
      pool.recycle(block);
    }
    queue->abandon();
  }
  EXPECT_EQ(RequestBlock::live(), live_before);
}

// kQueueFull leaves ownership with the caller and never produces a
// completion — the rejected block must not appear in the drain.
TEST(CompletionLifecycleTest, QueueFullRejectionNeverCompletes) {
  const std::int64_t live_before = RequestBlock::live();
  support::Rng rng(29);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  const auto xs = random_samples(4, 4, rng);
  {
    auto queue = std::make_shared<CompletionQueue>();
    RequestPool pool;
    InferenceEngine engine({.workers = 1, .queue_capacity = 3});
    engine.pause();
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(engine.submit(make_block(pool, queue, model, xs[i])),
                SubmitStatus::kAccepted);
    }
    RequestBlock* overflow = make_block(pool, queue, model, xs[3]);
    EXPECT_EQ(engine.submit(overflow), SubmitStatus::kQueueFull);
    pool.recycle(overflow);  // ownership never left us

    engine.resume();
    engine.shutdown();
    const auto done = drain_all(*queue);
    EXPECT_EQ(done.size(), 3u);
    for (RequestBlock* block : done) {
      EXPECT_NE(block, overflow);
      pool.recycle(block);
    }
    queue->abandon();
  }
  EXPECT_EQ(RequestBlock::live(), live_before);
}

// MPSC under contention (TSan target): producers race pushes while the
// consumer drains; every pushed block arrives exactly once.
TEST(CompletionQueueTest, ConcurrentPushesDrainExactlyOnce) {
  const std::int64_t live_before = RequestBlock::live();
  {
    CompletionQueue queue;
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kPerProducer = 500;
    std::atomic<std::size_t> started{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        started.fetch_add(1);
        while (started.load() < kProducers) std::this_thread::yield();
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          queue.push(new RequestBlock());
        }
      });
    }
    std::set<RequestBlock*> seen;
    while (seen.size() < kProducers * kPerProducer) {
      for (RequestBlock* block : drain_all(queue)) {
        EXPECT_TRUE(seen.insert(block).second) << "duplicate delivery";
      }
      std::this_thread::yield();
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(queue.drain(), nullptr);
    EXPECT_EQ(queue.pushed(), kProducers * kPerProducer);
    for (RequestBlock* block : seen) delete block;
  }
  EXPECT_EQ(RequestBlock::live(), live_before);
}

// An engine outliving its consumer: the serving loop abandons the queue
// and drops its reference while blocks are still in flight; the workers'
// deliveries must clean up after themselves instead of dangling.
TEST(CompletionLifecycleTest, ConsumerTeardownMidFlightLeaksNothing) {
  const std::int64_t live_before = RequestBlock::live();
  support::Rng rng(31);
  ModelRegistry registry;
  const auto model = registry.install("m", random_classifier(4, rng));
  const auto xs = random_samples(16, 4, rng);
  {
    InferenceEngine engine({.workers = 1, .queue_capacity = 32});
    engine.pause();
    {
      auto queue = std::make_shared<CompletionQueue>();
      RequestPool pool;
      for (const Vector& x : xs) {
        ASSERT_EQ(engine.submit(make_block(pool, queue, model, x)),
                  SubmitStatus::kAccepted);
      }
      queue->abandon();  // consumer leaves before anything scored
    }  // last strong reference gone; weak locks in deliver() now fail
    engine.resume();
    engine.shutdown();
  }
  EXPECT_EQ(RequestBlock::live(), live_before);
}

}  // namespace
}  // namespace ldafp::runtime
