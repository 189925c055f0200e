#include "runtime/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/error.h"

namespace ldafp::runtime {
namespace {

using namespace std::chrono_literals;

TEST(BoundedQueueTest, RejectsWhenFullInsteadOfGrowing) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), PushResult::kOk);
  EXPECT_EQ(q.try_push(2), PushResult::kOk);
  EXPECT_EQ(q.try_push(3), PushResult::kFull);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.try_push(3), PushResult::kOk);
}

TEST(BoundedQueueTest, CloseDrainsThenReportsClosed) {
  BoundedQueue<int> q(4);
  ASSERT_EQ(q.try_push(1), PushResult::kOk);
  ASSERT_EQ(q.try_push(2), PushResult::kOk);
  q.close();
  EXPECT_EQ(q.try_push(3), PushResult::kClosed);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BoundedQueueTest, PopWaitUntilTimesOutWhenEmpty) {
  BoundedQueue<int> q(4);
  int out = 0;
  const auto deadline = std::chrono::steady_clock::now() + 5ms;
  EXPECT_EQ(q.pop_wait_until(out, deadline), PopResult::kTimeout);
  ASSERT_EQ(q.try_push(7), PushResult::kOk);
  // A past deadline still drains queued items without waiting.
  EXPECT_EQ(q.pop_wait_until(out, std::chrono::steady_clock::now() - 1ms),
            PopResult::kItem);
  EXPECT_EQ(out, 7);
  q.close();
  EXPECT_EQ(q.pop_wait_until(out, std::chrono::steady_clock::now() + 5ms),
            PopResult::kClosed);
}

// A consumer already blocked in pop() when pause() lands must not take
// the next item: the hold is checked where the item is dequeued, not
// before the consumer starts waiting.
TEST(BoundedQueueTest, TracksHighWaterMark) {
  BoundedQueue<int> q(8);
  EXPECT_EQ(q.high_water_mark(), 0u);
  (void)q.try_push(1);
  (void)q.try_push(2);
  (void)q.try_push(3);
  int out = 0;
  (void)q.pop(out);
  (void)q.pop(out);
  EXPECT_EQ(q.high_water_mark(), 3u);  // monotone despite pops
}

TEST(BoundedQueueTest, ZeroCapacityIsRejected) {
  EXPECT_THROW(BoundedQueue<int>(0), ldafp::InvalidArgumentError);
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEverythingOnce) {
  BoundedQueue<int> q(16);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        // Spin on backpressure — producers outrun the tiny queue.
        while (q.try_push(std::move(value)) != PushResult::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::vector<int>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &received, c] {
      int out = 0;
      while (q.pop(out)) received[static_cast<std::size_t>(c)].push_back(out);
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  std::vector<bool> seen(kProducers * kPerProducer, false);
  std::size_t total = 0;
  for (const auto& chunk : received) {
    for (int v : chunk) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, kProducers * kPerProducer);
      ASSERT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate " << v;
      seen[static_cast<std::size_t>(v)] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
}

}  // namespace
}  // namespace ldafp::runtime
