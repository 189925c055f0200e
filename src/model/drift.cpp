#include "model/drift.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace ldafp::model {

DriftDetector::DriftDetector() { live_.reserve(kDriftWindow); }

void DriftDetector::set_reference(std::vector<double> scores) {
  LDAFP_CHECK(!scores.empty(), "drift reference needs >= 1 score");
  std::sort(scores.begin(), scores.end());
  reference_ = std::move(scores);
  // Interior decile edges of the reference — the PSI bucket cuts.
  decile_edges_.clear();
  const std::size_t n = reference_.size();
  for (std::size_t d = 1; d < 10; ++d) {
    decile_edges_.push_back(reference_[d * n / 10]);
  }
  live_.clear();
  live_next_ = 0;
}

void DriftDetector::observe(double score) {
  if (live_.size() < kDriftWindow) {
    live_.push_back(score);
  } else {
    live_[live_next_] = score;
  }
  live_next_ = (live_next_ + 1) % kDriftWindow;
}

std::size_t DriftDetector::live_count() const { return live_.size(); }

double DriftDetector::ks_statistic() const {
  if (reference_.empty() || live_.empty()) return 0.0;
  std::vector<double> live_sorted = live_;
  std::sort(live_sorted.begin(), live_sorted.end());
  // Classic two-pointer merge: evaluate |F_ref − F_live| after each
  // step of either empirical CDF.
  const double inv_ref = 1.0 / static_cast<double>(reference_.size());
  const double inv_live = 1.0 / static_cast<double>(live_sorted.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double max_gap = 0.0;
  while (i < reference_.size() && j < live_sorted.size()) {
    if (reference_[i] <= live_sorted[j]) {
      ++i;
    } else {
      ++j;
    }
    const double gap = std::fabs(static_cast<double>(i) * inv_ref -
                                 static_cast<double>(j) * inv_live);
    max_gap = std::max(max_gap, gap);
  }
  // Once one side is exhausted the gap only shrinks toward the shared
  // endpoint |1 − F| — already covered by the last in-loop evaluation
  // of the exhausted side, but walk the tail for exactness.
  while (i < reference_.size()) {
    ++i;
    max_gap = std::max(max_gap,
                       std::fabs(static_cast<double>(i) * inv_ref - 1.0));
  }
  while (j < live_sorted.size()) {
    ++j;
    max_gap = std::max(max_gap,
                       std::fabs(1.0 - static_cast<double>(j) * inv_live));
  }
  return max_gap;
}

double DriftDetector::psi() const {
  if (reference_.empty() || live_.empty()) return 0.0;
  const std::size_t buckets = decile_edges_.size() + 1;
  std::vector<std::size_t> ref_counts(buckets, 0);
  std::vector<std::size_t> live_counts(buckets, 0);
  auto bucket_of = [&](double v) {
    const auto it = std::upper_bound(decile_edges_.begin(),
                                     decile_edges_.end(), v);
    return static_cast<std::size_t>(it - decile_edges_.begin());
  };
  for (const double v : reference_) ++ref_counts[bucket_of(v)];
  for (const double v : live_) ++live_counts[bucket_of(v)];
  // Epsilon-floored proportions keep empty buckets finite (standard
  // PSI practice) without letting them dominate.
  const double eps = 1e-4;
  double psi = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double p_ref = std::max(
        static_cast<double>(ref_counts[b]) /
            static_cast<double>(reference_.size()), eps);
    const double p_live = std::max(
        static_cast<double>(live_counts[b]) /
            static_cast<double>(live_.size()), eps);
    psi += (p_live - p_ref) * std::log(p_live / p_ref);
  }
  return psi;
}

bool DriftDetector::drifted() const {
  if (reference_.empty() || live_.size() < kDriftMinScores) {
    return false;
  }
  return ks_statistic() >= kDriftKsThreshold ||
         psi() >= kDriftPsiThreshold;
}

void DriftDetector::publish(obs::MetricsRegistry& registry,
                            const std::string& model_name) const {
  obs::Labels labels;
  if (!model_name.empty()) labels.push_back({"model", model_name});
  registry.gauge("model.drift.ks", labels).set(ks_statistic());
  registry.gauge("model.drift.psi", labels).set(psi());
  registry.gauge("model.drift.live_scores", labels)
      .set(static_cast<double>(live_.size()));
}

}  // namespace ldafp::model
