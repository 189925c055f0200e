// Test-only copy of the grid polish as it stood before its O(1) move
// screen: every in-range candidate is copied and costed exactly.  The
// equivalence tests in local_search_test.cpp hold the screened polish
// to this reference bit for bit.  `exact_evals` counts the exact costs
// it computes, which the screened polish must never exceed; `beating`,
// when given, counts the candidates whose cost beat the running best —
// the ones no sound screen may skip.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/constraints.h"
#include "core/local_search.h"
#include "fixed/grid.h"

namespace ldafp::core::testing {

inline std::optional<LocalSearchResult> reference_polish(
    const linalg::Vector& start, const linalg::Matrix& sw,
    const stats::TwoClassModel& model, double beta,
    const fixed::FixedFormat& fmt,
    const LocalSearchOptions& options = LocalSearchOptions{},
    std::uint64_t* beating = nullptr) {
  if (!fixed::on_grid(start, fmt)) return std::nullopt;
  if (!is_feasible_weight(start, model, beta, fmt, kPolishFeasTol)) {
    return std::nullopt;
  }
  const linalg::Vector mean_diff = model.mean_difference();
  const double res = fmt.resolution();

  LocalSearchResult result;
  result.weights = start;
  result.cost = exact_cost(start, sw, mean_diff);

  std::vector<opt::Interval> bounds;
  bounds.reserve(start.size());
  for (std::size_t m = 0; m < start.size(); ++m) {
    bounds.push_back(feasible_weight_interval(m, model, beta, fmt));
  }

  for (int sweep = 0; sweep < kPolishMaxSweeps; ++sweep) {
    bool improved = false;
    for (std::size_t m = 0; m < result.weights.size(); ++m) {
      double best_value = result.weights[m];
      double best_cost = result.cost;
      for (int p = 0; p < options.max_step_pow; ++p) {
        const double step = res * static_cast<double>(1 << p);
        for (const double delta : {step, -step}) {
          const double cand = result.weights[m] + delta;
          if (cand < bounds[m].lo - kPolishFeasTol ||
              cand > bounds[m].hi + kPolishFeasTol) {
            continue;
          }
          if (cand < fmt.min_value() || cand > fmt.max_value()) continue;
          linalg::Vector w = result.weights;
          w[m] = cand;
          ++result.exact_evals;
          const double cost = exact_cost(w, sw, mean_diff);
          if (cost >= best_cost) continue;
          if (beating != nullptr) ++*beating;
          if (!satisfies_projection_constraints(w, model, beta, fmt,
                                                kPolishFeasTol)) {
            continue;
          }
          best_cost = cost;
          best_value = cand;
        }
      }
      if (best_value != result.weights[m]) {
        result.weights[m] = best_value;
        result.cost = best_cost;
        improved = true;
        ++result.moves;
      }
    }
    ++result.sweeps;
    if (!improved) break;
  }
  return result;
}

}  // namespace ldafp::core::testing
