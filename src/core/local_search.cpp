#include "core/local_search.h"

#include <cmath>
#include <limits>

#include "fixed/grid.h"
#include "linalg/ops.h"

namespace ldafp::core {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// O(1) screen for single-coordinate moves (DESIGN.md §10).  Caches
/// g = S_W·w, q = wᵀS_W w and t = dᵀw at the current point; the move
/// w + δ·e_m then has quadratic q + δ(2g_m + δS_mm) and t + δd_m.  Both
/// the cache and exact_cost carry rounding error, so the screen works
/// with static absolute bounds on it: every point the polish visits is
/// on the grid (|w_i| <= wmax), and the classic dot-product bound
/// |fl(Σxᵢyᵢ) - Σxᵢyᵢ| <= γ_n Σ|xᵢ||yᵢ| gives
///   |q_estimate - fl(exact q)| <= (4n+16)·eps·wmax²·Σ|S_ij|,
///   |t_estimate - fl(exact t)| <= (n+3)·eps·wmax·Σ|d_i|.
/// The errors below double those, and the final ratio is shaded down by
/// 8 eps, so rules_out() is true only where exact_cost itself is >= the
/// threshold.  The expansion needs S_W symmetric; a non-symmetric matrix
/// switches the screen off and every candidate is costed exactly.
class MoveScreen {
 public:
  MoveScreen(const linalg::Matrix& sw, const linalg::Vector& mean_diff,
             const fixed::FixedFormat& fmt)
      : sw_(sw), d_(mean_diff), sw_w_(mean_diff.size()) {
    const std::size_t n = d_.size();
    const double wmax = -fmt.min_value();  // |min| = 2^(K-1) > max
    double abs_sw = 0.0;
    double abs_d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        abs_sw += std::fabs(sw_(i, j));
        symmetric_ = symmetric_ && sw_(i, j) == sw_(j, i);
      }
      abs_d += std::fabs(d_[i]);
    }
    const auto dn = static_cast<double>(n);
    q_err_ = (8.0 * dn + 32.0) * kEps * wmax * wmax * abs_sw;
    t_err_ = (2.0 * dn + 8.0) * kEps * wmax * abs_d;
  }

  /// Recomputes the cache at `w` exactly: O(n²), once per accepted move.
  void refresh(const linalg::Vector& w) {
    q_ = linalg::sym_matvec_quad(sw_, w, sw_w_);
    t_ = linalg::dot(d_, w);
  }

  /// True when exact_cost at w + δ·e_m is certainly >= `threshold`.
  bool rules_out(std::size_t m, double delta, double threshold) const {
    if (!symmetric_) return false;
    const double q_lo =
        q_ + delta * (2.0 * sw_w_[m] + delta * sw_(m, m)) - q_err_;
    if (!(q_lo > 0.0)) return false;
    const double t_hi = std::fabs(t_ + delta * d_[m]) + t_err_;
    const double lower = q_lo / (t_hi * t_hi) * (1.0 - 8.0 * kEps);
    // A subnormal ratio has no relative accuracy; never screen on one.
    return lower >= threshold &&
           lower >= std::numeric_limits<double>::min();
  }

 private:
  const linalg::Matrix& sw_;
  const linalg::Vector& d_;
  linalg::Vector sw_w_;
  double q_ = 0.0;
  double t_ = 0.0;
  double q_err_ = 0.0;
  double t_err_ = 0.0;
  bool symmetric_ = true;
};

}  // namespace

double exact_cost(const linalg::Vector& w, const linalg::Matrix& sw,
                  const linalg::Vector& mean_diff) {
  const double t = linalg::dot(mean_diff, w);
  if (t == 0.0) return std::numeric_limits<double>::infinity();
  return linalg::quadratic_form(sw, w) / (t * t);
}

std::optional<LocalSearchResult> polish(const linalg::Vector& start,
                                        const linalg::Matrix& sw,
                                        const stats::TwoClassModel& model,
                                        double beta,
                                        const fixed::FixedFormat& fmt,
                                        const LocalSearchOptions& options) {
  if (!fixed::on_grid(start, fmt)) return std::nullopt;
  if (!is_feasible_weight(start, model, beta, fmt, kPolishFeasTol)) {
    return std::nullopt;
  }
  const linalg::Vector mean_diff = model.mean_difference();
  const double res = fmt.resolution();

  LocalSearchResult result;
  result.weights = start;
  result.cost = exact_cost(start, sw, mean_diff);
  // Candidates are tried in place on result.weights and restored.
  linalg::Vector& w = result.weights;
  MoveScreen screen(sw, mean_diff, fmt);
  screen.refresh(w);

  // Per-coordinate Eq. 18 intervals never change, so hoist them.
  std::vector<opt::Interval> bounds;
  bounds.reserve(start.size());
  for (std::size_t m = 0; m < start.size(); ++m) {
    bounds.push_back(feasible_weight_interval(m, model, beta, fmt));
  }

  for (int sweep = 0; sweep < kPolishMaxSweeps; ++sweep) {
    bool improved = false;
    for (std::size_t m = 0; m < w.size(); ++m) {
      const double current = w[m];
      double best_value = current;
      double best_cost = result.cost;
      for (int p = 0; p < options.max_step_pow; ++p) {
        const double step = res * static_cast<double>(1 << p);
        for (const double delta : {step, -step}) {
          const double cand = current + delta;
          if (cand < bounds[m].lo - kPolishFeasTol ||
              cand > bounds[m].hi + kPolishFeasTol) {
            continue;
          }
          if (cand < fmt.min_value() || cand > fmt.max_value()) continue;
          if (screen.rules_out(m, delta, best_cost)) continue;
          w[m] = cand;
          ++result.exact_evals;
          const double cost = exact_cost(w, sw, mean_diff);
          const bool better =
              cost < best_cost &&
              satisfies_projection_constraints(w, model, beta, fmt,
                                               kPolishFeasTol);
          w[m] = current;
          if (!better) continue;
          best_cost = cost;
          best_value = cand;
        }
      }
      if (best_value != current) {
        w[m] = best_value;
        result.cost = best_cost;
        improved = true;
        ++result.moves;
        screen.refresh(w);
      }
    }
    ++result.sweeps;
    if (!improved) break;
  }
  return result;
}

}  // namespace ldafp::core
