// Wall-clock timing used by the experiment harness and the branch-and-bound
// solver's time budget.
#pragma once

#include <chrono>

namespace ldafp::support {

/// Monotonic stopwatch.  Starts running at construction.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace ldafp::support
