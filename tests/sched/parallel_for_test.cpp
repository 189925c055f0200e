#include "sched/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sched/executor.h"

namespace ldafp::sched {
namespace {

void expect_full_coverage(std::size_t threads, std::size_t n) {
  std::vector<std::atomic<int>> counts(n);
  const auto out = parallel_map(Executor::pooled(threads), n,
                                [&](std::size_t i) {
                                  counts[i].fetch_add(1);
                                  return i;
                                });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << threads << " threads, index " << i;
    ASSERT_EQ(out[i], i);
  }
}

TEST(ParallelForTest, StaticCoversEveryIndexExactlyOnce) {
  // 100 indices over 4 loops: an even share per loop.
  expect_full_coverage(4, 100);
}

TEST(ParallelForTest, DynamicCoversEveryIndexExactlyOnce) {
  // 103 is not a multiple of any thread count here, so the cursor loops
  // finish unevenly.
  for (const std::size_t threads : {2u, 3u, 4u}) {
    expect_full_coverage(threads, 103);
  }
}

TEST(ParallelForTest, DynamicWithCoarseGrainCoversAll) {
  // Fewer indices than threads: only n loops are started.
  expect_full_coverage(8, 3);
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  int calls = 0;
  for (const std::size_t threads : {1u, 2u}) {
    const auto out =
        parallel_map(Executor::pooled(threads), 0, [&](std::size_t i) {
          ++calls;
          return i;
        });
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(calls, 0);
}

TEST(ParallelMapTest, ResultsLandInIndexOrder) {
  const auto out = parallel_map(Executor::pooled(4), 64, [](std::size_t i) {
    return i * i;
  });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMapTest, ZeroElements) {
  int calls = 0;
  const auto out = parallel_map(Executor::pooled(2), 0, [&](std::size_t i) {
    ++calls;
    return i;
  });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelMapTest, InlineExecutorRunsSequentiallyInOrder) {
  std::vector<std::size_t> order;
  parallel_map(Executor{}, 8, [&](std::size_t i) {
    order.push_back(i);
    return i;
  });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelMapTest, BodyExceptionRethrownToCaller) {
  EXPECT_THROW(parallel_map(Executor::pooled(4), 50,
                            [](std::size_t i) {
                              if (i == 17) {
                                throw std::runtime_error("bad index");
                              }
                              return i;
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace ldafp::sched
