#include "core/feature_selection.h"

#include "linalg/ops.h"
#include "stats/descriptive.h"
#include "support/error.h"

namespace ldafp::core {
namespace {

/// J(S) = d_Sᵀ (S_W,S + ridge·I)⁻¹ d_S for the subset S.
double subset_criterion(const linalg::Matrix& sw, const linalg::Vector& d,
                        const std::vector<std::size_t>& subset,
                        double ridge) {
  const std::size_t k = subset.size();
  linalg::Matrix sub(k, k);
  linalg::Vector dsub(k);
  for (std::size_t i = 0; i < k; ++i) {
    dsub[i] = d[subset[i]];
    for (std::size_t j = 0; j < k; ++j) {
      sub(i, j) = sw(subset[i], subset[j]);
    }
    sub(i, i) += ridge;
  }
  const linalg::Vector x = linalg::solve_spd_or_lu(sub, dsub);
  return linalg::dot(dsub, x);
}

}  // namespace

FeatureSelectionResult select_features(const TrainingSet& data,
                                       std::size_t k) {
  LDAFP_CHECK(data.valid(), "training set must have samples in both classes");
  LDAFP_CHECK(k >= 1, "must select at least one feature");
  const std::size_t dim = data.dim();
  k = std::min(k, dim);

  const stats::TwoClassModel model = fit_two_class_model(data);
  const linalg::Matrix sw = model.within_class_scatter();
  const linalg::Vector d = model.mean_difference();
  double trace = 0.0;
  for (std::size_t i = 0; i < dim; ++i) trace += sw(i, i);
  const double ridge =
      1e-8 * std::max(trace / static_cast<double>(dim), 1e-300);

  FeatureSelectionResult result;
  std::vector<bool> used(dim, false);
  for (std::size_t step = 0; step < k; ++step) {
    std::size_t best = dim;
    double best_value = -1.0;
    for (std::size_t m = 0; m < dim; ++m) {
      if (used[m]) continue;
      std::vector<std::size_t> candidate = result.selected;
      candidate.push_back(m);
      const double value = subset_criterion(sw, d, candidate, ridge);
      if (value > best_value) {
        best_value = value;
        best = m;
      }
    }
    if (best == dim) break;
    used[best] = true;
    result.selected.push_back(best);
    result.criterion_path.push_back(best_value);
  }
  return result;
}

TrainingSet project_features(const TrainingSet& data,
                             const std::vector<std::size_t>& selected) {
  LDAFP_CHECK(!selected.empty(), "selection must be non-empty");
  for (const std::size_t m : selected) {
    LDAFP_CHECK(m < data.dim(), "selected feature index out of range");
  }
  auto project = [&](const std::vector<linalg::Vector>& samples) {
    std::vector<linalg::Vector> out;
    out.reserve(samples.size());
    for (const auto& x : samples) {
      linalg::Vector y(selected.size());
      for (std::size_t i = 0; i < selected.size(); ++i) {
        y[i] = x[selected[i]];
      }
      out.push_back(std::move(y));
    }
    return out;
  };
  TrainingSet out;
  out.class_a = project(data.class_a);
  out.class_b = project(data.class_b);
  return out;
}

}  // namespace ldafp::core
