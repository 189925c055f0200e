#include "core/bit_allocation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/constraints.h"
#include "core/lda.h"
#include "core/local_search.h"
#include "stats/normal.h"
#include "support/error.h"

namespace ldafp::core {
namespace {

/// Sweeps of the mixed-grid coordinate-descent polish.
constexpr int kPolishSweeps = 40;

}  // namespace

MixedClassifier::MixedClassifier(fixed::MixedFormat layout,
                                 linalg::Vector weights, double threshold,
                                 fixed::FixedFormat feature_fmt,
                                 fixed::RoundingMode mode)
    : layout_(std::move(layout)),
      weights_(std::move(weights)),
      feature_fmt_(feature_fmt),
      threshold_raw_(feature_fmt.quantize_saturate(threshold, mode)),
      mode_(mode) {
  LDAFP_CHECK(weights_.size() == layout_.size(),
              "mixed classifier dimension mismatch");
  LDAFP_CHECK(layout_.on_grid(weights_),
              "weights must be on their per-element grids");
}

Label MixedClassifier::classify(const linalg::Vector& x,
                                fixed::DotDiagnostics* diag) const {
  const std::int64_t y = fixed::mixed_dot_datapath(
      layout_, weights_, x, feature_fmt_, mode_, diag);
  return y >= threshold_raw_ ? Label::kClassA : Label::kClassB;
}

MixedClassifier BitAllocationResult::classifier(
    const fixed::FixedFormat& feature_fmt, fixed::RoundingMode mode) const {
  LDAFP_CHECK(found, "allocation did not produce a classifier");
  return MixedClassifier(layout, weights, threshold, feature_fmt, mode);
}

namespace {

/// Diagonal of the Hessian of cost(w) = wᵀSw / (dᵀw)² at w.
linalg::Vector cost_hessian_diagonal(const linalg::Matrix& sw,
                                     const linalg::Vector& diff,
                                     const linalg::Vector& w) {
  const double t = linalg::dot(diff, w);
  const double q = linalg::quadratic_form(sw, w);
  const linalg::Vector sw_w = sw * w;
  const std::size_t dim = w.size();
  linalg::Vector h(dim);
  const double t2 = t * t;
  for (std::size_t m = 0; m < dim; ++m) {
    const double d = diff[m];
    h[m] = 2.0 * sw(m, m) / t2 - 8.0 * sw_w[m] * d / (t2 * t) +
           6.0 * q * d * d / (t2 * t2);
  }
  return h;
}

}  // namespace

BitAllocationResult allocate_word_lengths(
    const TrainingSet& data, const fixed::FixedFormat& feature_fmt,
    int total_weight_bits, const BitAllocationOptions& options) {
  LDAFP_CHECK(data.valid(), "training set must have samples in both classes");
  LDAFP_CHECK(options.integer_bits >= 1 && options.min_frac_bits >= 0 &&
                  options.min_frac_bits <= options.max_frac_bits,
              "invalid bit-allocation options");
  const std::size_t dim = data.dim();
  const int floor_bits = static_cast<int>(dim) *
                         (options.integer_bits + options.min_frac_bits);
  LDAFP_CHECK(total_weight_bits >= floor_bits,
              "budget below K + min_frac_bits per weight");

  // Statistics from feature-quantized data, as in Algorithm 1.
  const TrainingSet quantized = quantize_training_set(data, feature_fmt);
  const stats::TwoClassModel model = fit_two_class_model(quantized);
  const linalg::Matrix sw = model.within_class_scatter();
  const linalg::Vector diff = model.mean_difference();
  const double beta = stats::confidence_beta(options.rho);

  // Reference float solution: the LDA direction, scaled by the largest
  // power-of-two gain that keeps it inside the Eq. 18/20 feasible region
  // of the widest per-element format (the K-bit range is what matters).
  const LdaModel lda = fit_lda(quantized);
  const fixed::FixedFormat wide_fmt(options.integer_bits,
                                    options.max_frac_bits);
  const double gain =
      lda_pow2_gain(lda, model, beta, wide_fmt, LdaGainPolicy::kOverflowAware);
  linalg::Vector reference = lda.weights;
  reference *= gain;
  // Orient toward class A (Eq. 12 needs t > 0; LDA already guarantees it,
  // keep the guard for degenerate fits).
  if (linalg::dot(diff, reference) < 0.0) reference *= -1.0;

  BitAllocationResult result;
  result.sensitivity = cost_hessian_diagonal(sw, diff, reference);

  // Greedy reverse water-filling: spend one fractional bit at a time on
  // the coordinate with the largest remaining expected quantization
  // damage s_m · 2^-2F_m (the 3/4 reduction factor is common to all, so
  // ranking by s_m 4^-F_m suffices).
  std::vector<int> frac(dim, options.min_frac_bits);
  int remaining = total_weight_bits - floor_bits;
  while (remaining > 0) {
    std::size_t best = dim;  // invalid
    double best_damage = -1.0;
    for (std::size_t m = 0; m < dim; ++m) {
      if (frac[m] >= options.max_frac_bits) continue;
      const double damage = std::max(result.sensitivity[m], 0.0) *
                            std::ldexp(1.0, -2 * frac[m]);
      if (damage > best_damage) {
        best_damage = damage;
        best = m;
      }
    }
    if (best == dim) break;  // every coordinate is at the cap
    ++frac[best];
    --remaining;
  }

  result.layout = fixed::MixedFormat(options.integer_bits, frac);
  linalg::Vector w = result.layout.snap(reference, options.rounding);
  // Snapping can zero the orientation-carrying coordinates; flip onto
  // the t > 0 side if needed (the polish below only explores that side).
  if (linalg::dot(diff, w) < 0.0) {
    w *= -1.0;
    w = result.layout.snap(w, options.rounding);
  }

  // Mixed-grid coordinate-descent polish (per-element ulp steps), with
  // the projection constraints as the feasibility gate.
  double cost = exact_cost(w, sw, diff);
  for (int sweep = 0; sweep < kPolishSweeps; ++sweep) {
    bool improved = false;
    for (std::size_t m = 0; m < dim; ++m) {
      const fixed::FixedFormat fmt = result.layout.element_format(m);
      const double ulp = fmt.resolution();
      for (const double delta : {ulp, -ulp, 2.0 * ulp, -2.0 * ulp}) {
        const double cand = w[m] + delta;
        if (cand < fmt.min_value() || cand > fmt.max_value()) continue;
        linalg::Vector trial = w;
        trial[m] = cand;
        // The cost is symmetric under w -> -w, so a coordinate step can
        // silently cross t = 0 into the inverted-orientation half-space;
        // only the t > 0 side classifies per Eq. 12.
        if (linalg::dot(diff, trial) <= 0.0) continue;
        const double trial_cost = exact_cost(trial, sw, diff);
        if (trial_cost >= cost) continue;
        if (!satisfies_projection_constraints(trial, model, beta,
                                              feature_fmt, 1e-9)) {
          continue;
        }
        w = std::move(trial);
        cost = trial_cost;
        improved = true;
      }
    }
    if (!improved) break;
  }

  if (!std::isfinite(cost)) return result;  // found stays false
  result.weights = std::move(w);
  result.cost = cost;
  result.threshold =
      0.5 * (linalg::dot(result.weights, model.class_a.mu()) +
             linalg::dot(result.weights, model.class_b.mu()));
  result.found = true;
  return result;
}

}  // namespace ldafp::core
