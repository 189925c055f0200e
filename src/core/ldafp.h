// LDA-FP: training a fixed-point LDA classifier by global optimization
// (the paper's primary contribution, Secs. 3-4).
//
// The trainer implements Algorithm 1:
//   1. round the training data to QK.F,
//   2. fit the per-class Gaussian statistics,
//   3. build the (w, t) root box from Eqs. 28-29 (tightened by the
//      closed-form Eq. 18 intervals),
//   4. run best-first branch-and-bound; each node is bounded by the
//      convex SOCP relaxation (Eq. 25) solved with the barrier method,
//      with η = sup t² for the lower bound (Eq. 26) and the relaxation
//      solution rounded onto the grid for the upper bound,
//   5. finish small boxes by exact enumeration.
// Heuristics (the paper's undisclosed "additional heuristics", ours
// documented in DESIGN.md §5): warm start from the rounded conventional
// LDA solution, grid coordinate-descent polish of every incumbent,
// t-interval-first branching, grid-aligned box tightening, and anytime
// node/time budgets with a reported optimality gap.
#pragma once

#include <optional>

#include "core/classifier.h"
#include "core/local_search.h"
#include "core/training_set.h"
#include "fixed/format.h"
#include "opt/bnb.h"
#include "stats/gaussian_model.h"

namespace ldafp::core {

/// Trainer configuration.
struct LdaFpOptions {
  /// Confidence level ρ of Eq. 16; β = Φ⁻¹(0.5 + 0.5ρ).
  double rho = 0.9999;

  /// Branch-and-bound budgets (node/time/gap).  The defaults prove
  /// optimality on small problems; large problems (e.g. the 42-feature
  /// BCI set) stop at the budget and report the achieved gap.
  /// `bnb.executor` selects the execution resource: the default inline
  /// executor trains single-threaded exactly as before, while
  /// sched::Executor::pooled(N) expands search nodes on N workers with
  /// bit-identical weights, cost, and certified gap (DESIGN.md §9).
  opt::BnbOptions bnb;

  /// Seed the incumbent with the rounded conventional-LDA solution.
  bool warm_start_from_lda = true;

  /// Polish every incumbent candidate by grid coordinate descent.
  bool local_search = true;
  LocalSearchOptions local_search_options;

  /// Branch on t while its interval straddles 0 or sup t²/inf t² exceeds
  /// 4, down to 1e-3 of the root t-interval width (false disables
  /// t-branching — ablation knob).
  bool branch_t_first = true;

  /// Rounding mode used for data/weight quantization.
  fixed::RoundingMode rounding = fixed::RoundingMode::kNearestEven;

  /// Covariance estimator behind the Eq. 14 class models (empirical =
  /// the paper; Ledoit-Wolf shrinkage stabilizes small-sample fits like
  /// the 42-feature / 112-trial BCI folds).
  stats::CovarianceEstimator covariance =
      stats::CovarianceEstimator::kEmpirical;

  /// Checks the trainer knobs plus the nested bnb options;
  /// called once by the LdaFpTrainer constructor.  The observability
  /// seam rides in `bnb.sink`: when set, train() additionally traces
  /// its stages ("ldafp.train" → prepare / warm_start / bnb.run) and
  /// the search publishes its counters — results stay bit-identical.
  Status validate() const;
};

/// Training outcome.
struct LdaFpResult {
  linalg::Vector weights;        ///< on the QK.F grid, Eq. 18/20 feasible
  double threshold = 0.0;        ///< wᵀ(μ_A + μ_B)/2 on quantized data
  double cost = 0.0;             ///< Fisher cost of `weights` (Eq. 21)
  double beta = 0.0;             ///< the β actually used
  opt::BnbResult search;         ///< branch-and-bound statistics
  double train_seconds = 0.0;

  /// True when a feasible weight vector was found.
  bool found() const { return weights.size() > 0; }
};

/// The LDA-FP trainer for one fixed-point format.
class LdaFpTrainer {
 public:
  explicit LdaFpTrainer(fixed::FixedFormat format,
                        LdaFpOptions options = LdaFpOptions{});

  const fixed::FixedFormat& format() const { return format_; }
  const LdaFpOptions& options() const { return options_; }

  /// Trains on (already feature-scaled) data.  Quantizes the data,
  /// solves the mixed-integer program, returns the optimal grid weights.
  /// Throws InvalidArgumentError on invalid data.
  LdaFpResult train(const TrainingSet& data) const;

  /// The classifier for a training result (throws when !result.found()).
  FixedClassifier make_classifier(const LdaFpResult& result) const;

 private:
  fixed::FixedFormat format_;
  LdaFpOptions options_;
};

}  // namespace ldafp::core
