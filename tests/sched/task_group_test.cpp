#include "sched/task_group.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "sched/executor.h"

namespace ldafp::sched {
namespace {

TEST(TaskGroupTest, InlineRunsTasksImmediately) {
  TaskGroup group{Executor{}};
  bool ran = false;
  group.run([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // inline: done before run() returns
  group.wait();
}

TEST(TaskGroupTest, PooledForkJoinRunsEveryTask) {
  TaskGroup group{Executor::pooled(4)};
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(TaskGroupTest, GroupIsReusableAfterWait) {
  TaskGroup group{Executor::pooled(2)};
  std::atomic<int> ran{0};
  group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(TaskGroupTest, ExceptionPropagatesFromPooledTask) {
  TaskGroup group{Executor::pooled(2)};
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The error is consumed: the group works again afterwards.
  std::atomic<bool> ran{false};
  group.run([&ran] { ran.store(true); });
  group.wait();
  EXPECT_TRUE(ran.load());
}

TEST(TaskGroupTest, ExceptionDeferredToWaitOnInlineExecutor) {
  // Parity with the pooled executor: run() never throws, wait() does.
  TaskGroup group{Executor{}};
  EXPECT_NO_THROW(group.run([] { throw std::runtime_error("boom"); }));
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(TaskGroupTest, SiblingsFinishDespiteOneThrowing) {
  TaskGroup group{Executor::pooled(2)};
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.run([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("one bad apple");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // the failure does not cancel siblings
}

TEST(TaskGroupTest, NestedGroupsOnSharedPoolDoNotDeadlock) {
  // Outer tasks wait on inner groups that use the *same* pool; the
  // waiters must help (run queued tasks) rather than block, or a pool
  // smaller than the nesting width would deadlock.
  Executor executor = Executor::pooled(2);
  TaskGroup outer(executor);
  std::atomic<int> inner_ran{0};
  for (int i = 0; i < 8; ++i) {
    outer.run([&executor, &inner_ran] {
      TaskGroup inner(executor);
      for (int j = 0; j < 8; ++j) {
        inner.run([&inner_ran] { inner_ran.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_ran.load(), 64);
}

TEST(TaskGroupTest, TasksMayForkFollowUpsIntoTheirOwnGroup) {
  // A task resubmitting into its own group must keep wait() from
  // returning early — the branch-and-bound speculation engine relies on
  // exactly this.
  TaskGroup group{Executor::pooled(2)};
  std::atomic<int> depth_reached{0};
  std::function<void(int)> chain = [&](int depth) {
    depth_reached.fetch_add(1);
    if (depth < 9) group.run([&chain, depth] { chain(depth + 1); });
  };
  group.run([&chain] { chain(0); });
  group.wait();
  EXPECT_EQ(depth_reached.load(), 10);
}

TEST(TaskGroupTest, DestructorJoinsWithoutWait) {
  std::atomic<int> ran{0};
  {
    TaskGroup group{Executor::pooled(2)};
    for (int i = 0; i < 32; ++i) group.run([&ran] { ran.fetch_add(1); });
    // No wait(): the destructor must join (and swallow errors).
    group.run([] { throw std::runtime_error("swallowed"); });
  }
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace ldafp::sched
