// Drift detection on held-out fixed-point score distributions.
//
// The retraining loop needs a trigger: "the scores the serving model
// produces now no longer look like the scores it produced on the data
// it was validated on."  The detector keeps the incumbent's reference
// score distribution (the projections wᵀx on the held-out window,
// captured at promotion time) as a sorted array, streams live serving
// scores into a fixed-capacity ring, and compares the two with the
// two-sample Kolmogorov–Smirnov statistic plus the population
// stability index over reference deciles.  Both are published as
// `model.drift.*` gauges through the obs::Sink seam, so operators see
// the drift trajectory in every metrics snapshot, and both feed the
// drift gate (`drifted()`).  The window and thresholds are the
// constants below.
//
// observe() is lock-free single-writer: the serving loop owns the
// detector (one per model); cross-thread use goes through the
// retrainer's lock.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ldafp::model {

/// Live-score ring capacity (statistics use the newest kDriftWindow).
inline constexpr std::size_t kDriftWindow = 512;
/// Live scores required before drifted() may fire.
inline constexpr std::size_t kDriftMinScores = 128;
/// KS statistic (sup |F_ref − F_live| ∈ [0,1]) at or above which the
/// distributions are declared drifted.
inline constexpr double kDriftKsThreshold = 0.15;
/// PSI at or above which the distributions are declared drifted
/// (industry folklore: 0.1 = shifting, 0.25 = shifted).
inline constexpr double kDriftPsiThreshold = 0.25;

/// Two-sample distribution monitor for one serving model.
class DriftDetector {
 public:
  DriftDetector();

  /// Installs the incumbent's held-out score sample as the reference
  /// (sorted internally; empties the live window — a new incumbent
  /// starts a fresh comparison).
  void set_reference(std::vector<double> scores);

  /// Streams one live serving score.
  void observe(double score);

  /// Live scores currently in the window (saturates at kDriftWindow).
  std::size_t live_count() const;

  /// Two-sample KS statistic between reference and live window;
  /// 0 while either side is empty.
  double ks_statistic() const;

  /// Population stability index over reference deciles; 0 while either
  /// side is empty.
  double psi() const;

  /// True when enough live scores accumulated and either statistic
  /// crossed its threshold.
  bool drifted() const;

  /// Publishes model.drift.{ks,psi,live_scores} gauges, labeled with
  /// the model name when non-empty.
  void publish(obs::MetricsRegistry& registry,
               const std::string& model_name = "") const;

 private:
  std::vector<double> reference_;        ///< sorted
  std::vector<double> decile_edges_;     ///< 9 interior decile cuts
  std::vector<double> live_;             ///< ring buffer
  std::size_t live_next_ = 0;            ///< ring write position
};

}  // namespace ldafp::model
