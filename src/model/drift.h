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
// drift gate (`drifted()`) that arms a background retrain.
//
// observe() is lock-free single-writer: the serving loop owns the
// detector (one per model); cross-thread use goes through the
// retrainer's lock.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/metrics.h"
#include "support/error.h"

namespace ldafp::model {

/// Detector tuning.
struct DriftOptions {
  /// Live-score ring capacity (statistics use the newest `window`).
  std::size_t window = 512;
  /// Live scores required before drifted() may fire.
  std::size_t min_scores = 128;
  /// KS statistic (sup |F_ref − F_live| ∈ [0,1]) at or above which the
  /// distributions are declared drifted.
  double ks_threshold = 0.15;
  /// PSI at or above which the distributions are declared drifted
  /// (industry folklore: 0.1 = shifting, 0.25 = shifted).
  double psi_threshold = 0.25;

  Status validate() const;
};

/// Two-sample distribution monitor for one serving model.
class DriftDetector {
 public:
  explicit DriftDetector(DriftOptions options = {});

  const DriftOptions& options() const { return options_; }

  /// Installs the incumbent's held-out score sample as the reference
  /// (sorted internally; empties the live window — a new incumbent
  /// starts a fresh comparison).
  void set_reference(std::vector<double> scores);

  /// Streams one live serving score.
  void observe(double score);

  /// Live scores currently in the window (saturates at window size).
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

  /// Clears the live window only (reference stays).
  void reset_live();

  /// Publishes model.drift.{ks,psi,live_scores} gauges, labeled with
  /// the model name when non-empty.
  void publish(obs::MetricsRegistry& registry,
               const std::string& model_name = "") const;

 private:
  DriftOptions options_;
  std::vector<double> reference_;        ///< sorted
  std::vector<double> decile_edges_;     ///< 9 interior decile cuts
  std::vector<double> live_;             ///< ring buffer
  std::size_t live_next_ = 0;            ///< ring write position
  std::size_t live_total_ = 0;           ///< scores ever observed
};

}  // namespace ldafp::model
