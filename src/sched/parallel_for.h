// parallel_map, the data-parallel loop helper over an Executor.  Inline
// executors run the plain sequential loop in index order.  A pooled
// executor runs one loop per worker, each claiming the next index from a
// shared atomic cursor — right for the coarse, skewed bodies this
// repository maps (a CV trial, a word length's whole branch-and-bound).
// Result i always lands at slot i, so a caller that folds the results in
// index order is bit-identical to the sequential loop at any thread
// count, without requiring associativity.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "sched/executor.h"
#include "sched/task_group.h"

namespace ldafp::sched {

/// Evaluates `fn(i)` for i in [0, n), each exactly once, and returns the
/// results in index order.  The value type must be default-constructible
/// and movable; `fn` must be safe to invoke concurrently on distinct
/// indices.  An invocation that throws ends its own loop; the first
/// exception is rethrown here once every loop has finished.
template <typename Fn>
auto parallel_map(const Executor& executor, std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using Value = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<Value> out(n);
  if (!executor.parallel() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  std::atomic<std::size_t> cursor{0};
  TaskGroup group(executor);
  const std::size_t loops = std::min(executor.threads(), n);
  for (std::size_t w = 0; w < loops; ++w) {
    group.run([&] {
      for (std::size_t i = cursor.fetch_add(1); i < n;
           i = cursor.fetch_add(1)) {
        out[i] = fn(i);
      }
    });
  }
  group.wait();
  return out;
}

}  // namespace ldafp::sched
