// The word-length sweep harness shared by the paper-table benches and the
// examples: for each word length W, train conventional LDA (round after
// training) and LDA-FP on the same quantized data, evaluate both through
// the identical fixed-point datapath, and report the paper's table rows.
#pragma once

#include <optional>
#include <vector>

#include "core/format_policy.h"
#include "core/lda.h"
#include "fixed/datapath.h"
#include "core/ldafp.h"
#include "data/dataset.h"
#include "obs/sink.h"
#include "sched/executor.h"
#include "support/rng.h"

namespace ldafp::eval {

/// Sweep configuration.
struct ExperimentConfig {
  std::vector<int> word_lengths;          ///< total bits W = K + F
  int integer_bits = 2;                   ///< the K of QK.F
  core::LdaFpOptions ldafp;               ///< trainer budgets/heuristics
  /// Arithmetic backend the trained classifiers are deployed on.  Both
  /// trainers always search the QK.F grid (Eq. 13 is a two's-complement
  /// formulation); with kLns the trained grid weights are then
  /// re-quantized to the nearest log-grid point and every reported
  /// error is measured through the LNS datapath at the same word length
  /// — the train-then-requantize deployment flow bench/lns_sweep
  /// compares against the fixed-point rows.
  fixed::DatapathKind datapath = fixed::DatapathKind::kTwosComplement;
  /// Baseline rescale policy.  The paper's baseline solves Eq. 11,
  /// normalizes, and rounds — kUnitNorm.  The stronger policies are
  /// ablation variants (bench/ablation_baseline).
  core::LdaGainPolicy lda_gain = core::LdaGainPolicy::kUnitNorm;

  /// Covariance estimator applied symmetrically to baseline and LDA-FP
  /// (empirical = the paper's Eqs. 5-6).
  stats::CovarianceEstimator covariance =
      stats::CovarianceEstimator::kEmpirical;

  /// Execution resource for the sweep harness: run_cv_sweep fans its
  /// (word length × fold) trials over this executor.  The default
  /// inline executor runs them one after another; a pooled executor
  /// runs them concurrently with every reported number (errors, gaps)
  /// bit-identical to sequential execution — all randomness is drawn from
  /// the caller's Rng *before* the fan-out, trials are pure functions of
  /// their inputs, and per-fold errors are folded in fold order.  Only
  /// the timing fields differ.  Independent of `ldafp.bnb.executor`
  /// (intra-trial search parallelism); sharing one pooled executor
  /// between both layers is safe — waiters help instead of blocking.
  sched::Executor executor;

  /// Observability seam (may be null).  run_trial forwards the sink into
  /// the trainer (`ldafp.bnb.sink`), so every trial's search publishes
  /// its solver/bnb counters into the shared registry, and additionally
  /// publishes per-trial "eval.*" metrics labeled by word length.  The
  /// registry's hot path is lock-free and label-disjoint per (w, fold),
  /// so a pooled executor needs no extra coordination, and attaching a
  /// sink never changes any reported number (tests/obs holds this).
  obs::Sink* sink = nullptr;
};

/// One row of a paper-style table.
struct TrialResult {
  int word_length = 0;
  core::FormatChoice format_choice{fixed::FixedFormat(1, 0), 1.0};
  double lda_error = 0.0;      ///< conventional LDA, fixed-point datapath
  double ldafp_error = 0.0;    ///< LDA-FP, fixed-point datapath
  double ldafp_seconds = 0.0;  ///< training runtime (the paper reports it)
  double ldafp_gap = 0.0;      ///< branch-and-bound optimality gap at exit
  opt::BnbStatus ldafp_status = opt::BnbStatus::kNoSolution;
  std::size_t ldafp_nodes = 0;
  /// Quantized weight vectors (Figure 4 plots these) and the decision
  /// thresholds that complete each boundary (Eq. 12).
  linalg::Vector lda_weights;
  linalg::Vector ldafp_weights;
  double lda_threshold = 0.0;
  double ldafp_threshold = 0.0;
};

/// Trains both algorithms on `train` at word length W and scores them on
/// `test` (train/test protocol, Table 1).
TrialResult run_trial(const data::LabeledDataset& train,
                      const data::LabeledDataset& test, int word_length,
                      const ExperimentConfig& config);

/// One row of a cross-validated sweep (Table 2 protocol).
struct CvTrialResult {
  int word_length = 0;
  double lda_error = 0.0;      ///< mean test error over folds
  double ldafp_error = 0.0;
  /// Summed training time over folds — the paper's Table 2 runtime
  /// convention, invariant (up to scheduler noise) under parallelism.
  double ldafp_seconds = 0.0;
  /// Wall-clock span from the row's first fold starting to its last
  /// fold finishing; with a pooled executor this is what actually
  /// elapsed, and the ldafp_seconds / wall_seconds ratio is the row's
  /// effective parallel speedup.
  double wall_seconds = 0.0;
  double max_gap = 0.0;        ///< worst fold's optimality gap
};

/// Stratified k-fold evaluation of both algorithms at each word length.
std::vector<CvTrialResult> run_cv_sweep(const data::LabeledDataset& data,
                                        std::size_t folds,
                                        const ExperimentConfig& config,
                                        support::Rng& rng);

/// Word-length selection: the smallest configured word length whose
/// cross-validated LDA-FP error meets `target_error`, or nullopt when
/// none does.  This is the design-flow entry point the paper's power
/// argument implies (pick bits by accuracy, convert to power).
struct WordLengthChoice {
  int word_length = 0;
  double cv_error = 0.0;
};
std::optional<WordLengthChoice> select_min_word_length(
    const data::LabeledDataset& data, std::size_t folds,
    const ExperimentConfig& config, double target_error,
    support::Rng& rng);

}  // namespace ldafp::eval
