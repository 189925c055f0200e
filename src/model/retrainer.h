// Online retraining with hot promotion (DESIGN.md §13).
//
// The orchestrator closes the loop the ROADMAP asked for: the serving
// process keeps learning.  Labeled feedback streams into a bounded
// sample window plus rank-1 streaming sufficient statistics
// (stats::StreamingTwoClass); unlabeled serving scores stream into a
// DriftDetector armed with the incumbent's held-out score
// distribution, whose gate callers read through drift_detected().
// When a caller asks, a retrain runs — optionally in the background
// on the sched::Executor — trains a candidate, validates it against
// the incumbent on the held-out slice of the window, and only a
// candidate that is no worse gets promoted: an atomic
// runtime::ModelRegistry install (in-flight traffic keeps the snapshot
// it resolved; new traffic sees the new version — the RCU pattern of
// runtime/registry.h), plus a durable versioned
// `<store>/<name>.v<N>.ldafp` model file.  Each install prunes the
// registry to the version it just published, so retraining never
// grows the registry; the store keeps every promoted version.
//
// Everything observable is published through the obs::Sink seam:
// model.retrains / model.promotions / model.rejected counters,
// model.version gauge, and the model.drift.* gauges.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/ldafp.h"
#include "model/drift.h"
#include "model/model_io.h"
#include "obs/sink.h"
#include "runtime/registry.h"
#include "sched/executor.h"
#include "sched/task_group.h"
#include "stats/streaming.h"

namespace ldafp::model {

/// How a retrain builds its candidate.
enum class RetrainMode : std::uint8_t {
  /// Closed-form conventional LDA from the streaming sufficient
  /// statistics, quantized overflow-aware onto the grid — O(M³) per
  /// retrain regardless of window size; the fast path for frequent
  /// background retrains.
  kStreamingLda,
  /// Full LDA-FP branch-and-bound on the training slice of the window
  /// under the configured budgets — the paper's trainer, for when a
  /// retrain may spend seconds to buy back accuracy.
  kLdaFp,
};

const char* to_string(RetrainMode mode);

/// Orchestrator tuning.
struct RetrainerOptions {
  /// Registry name the incumbent serves under.
  std::string model_name = "model";
  /// Fixed-point format candidates are trained at.
  fixed::FixedFormat format{3, 3};
  RetrainMode mode = RetrainMode::kStreamingLda;
  /// Trainer configuration: budgets drive kLdaFp; rho (via its beta)
  /// and the rounding mode drive both modes' quantization.
  core::LdaFpOptions trainer;
  /// Labeled-sample window capacity (oldest evicted first).
  std::size_t window_capacity = 2048;
  /// Newest labeled samples withheld from training and used to score
  /// candidate vs incumbent.
  std::size_t holdout = 128;
  /// Minimum labeled samples per class in the *training* slice before
  /// a retrain is attempted.
  std::size_t min_class_samples = 16;
  /// A candidate is promoted when its held-out error is at most the
  /// incumbent's plus this slack.
  double accuracy_tolerance = 0.0;
  /// Background retrains run here; the default inline executor makes
  /// retrain_async() synchronous (deterministic tests, same results).
  sched::Executor executor;
  obs::Sink* sink = nullptr;
  /// Directory for durable versioned model files ("" = memory only).
  std::string store_dir;

  Status validate() const;
};

/// What one retrain attempt did.
struct RetrainOutcome {
  bool attempted = false;       ///< a candidate was actually trained
  bool promoted = false;
  std::uint64_t version = 0;    ///< registry version installed (when promoted)
  double candidate_error = -1.0;  ///< held-out error (-1 = not measured)
  double incumbent_error = -1.0;
  std::string reason;  ///< "promoted" / "not-better" / "insufficient-data" /
                       ///< "no-feasible"
};

/// The serving-side retraining orchestrator for one registry name.
class OnlineRetrainer {
 public:
  /// `registry` outlives the retrainer.
  OnlineRetrainer(runtime::ModelRegistry& registry, RetrainerOptions options);

  /// Joins any in-flight background retrain.
  ~OnlineRetrainer();

  OnlineRetrainer(const OnlineRetrainer&) = delete;
  OnlineRetrainer& operator=(const OnlineRetrainer&) = delete;

  const RetrainerOptions& options() const { return options_; }

  /// Installs the initial incumbent (registry version 1), persists it
  /// when a store is configured, and returns the published handle.
  /// `provenance` fields name/model_version are overwritten.
  runtime::ModelHandle bootstrap(const core::FixedClassifier& clf,
                                 TrainingProvenance provenance = {});

  /// Streams one labeled sample into the window and the streaming
  /// sufficient statistics.  Thread-safe.
  void observe(const linalg::Vector& x, core::Label label);

  /// Streams one serving score (the incumbent's projection, as a real)
  /// into the drift detector.  Thread-safe.
  void observe_score(double projection_real);

  /// True when the drift gate currently fires.  Thread-safe.
  bool drift_detected() const;

  /// Publishes the drift gauges and lifecycle counters snapshot into
  /// the sink's registry (no-op without one).  Thread-safe.
  void publish_drift() const;

  /// Synchronous retrain + validate + (maybe) promote.  Thread-safe;
  /// concurrent calls serialize on an internal retrain lock.
  RetrainOutcome retrain_now();

  /// Schedules retrain_now on the executor.  Returns false when a
  /// background retrain is already in flight (never queues a backlog).
  bool retrain_async();

  /// Joins the in-flight background retrain, if any.
  void wait();

  /// Outcome of the most recent finished retrain.
  RetrainOutcome last_outcome() const;

  /// Lifecycle counters (also published as model.* metrics).
  std::uint64_t retrains() const { return retrains_; }
  std::uint64_t promotions() const { return promotions_; }

 private:
  struct LabeledSample {
    linalg::Vector x;
    core::Label label;
  };

  runtime::ModelHandle install_locked(const core::FixedClassifier& clf,
                                      TrainingProvenance provenance);
  double holdout_error(const core::FixedClassifier& clf,
                       const std::vector<LabeledSample>& holdout) const;
  void rearm_drift_locked(const core::FixedClassifier& clf,
                          const std::vector<LabeledSample>& holdout);
  void bump(const char* counter_name) const;
  void finish(RetrainOutcome outcome);

  runtime::ModelRegistry& registry_;
  RetrainerOptions options_;
  double beta_ = 0.0;

  mutable std::mutex mu_;            ///< window / moments / drift
  std::vector<LabeledSample> window_;  ///< ring: sample c at slot c % cap
  std::size_t observed_ = 0;           ///< labeled samples ever observed
  stats::StreamingTwoClass moments_;
  DriftDetector drift_;
  std::optional<core::FixedClassifier> incumbent_;
  RetrainOutcome last_outcome_;

  std::mutex retrain_mu_;            ///< serializes bootstrap/retrain bodies
  std::atomic<bool> inflight_{false};
  sched::TaskGroup group_;

  std::atomic<std::uint64_t> retrains_{0};
  std::atomic<std::uint64_t> promotions_{0};
};

}  // namespace ldafp::model
