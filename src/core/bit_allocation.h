// Per-feature word-length optimization — the paper's named future work
// ("different elements {w_m} of the weight vector w can be assigned
// different word lengths", Sec. 3), in the spirit of the word-length
// allocation literature it cites (Constantinides et al. [10]).
//
// Given a total weight-storage budget B = Σ (K + F_m), the allocator
// distributes fractional bits greedily by curvature: quantizing w_m with
// step δ_m = 2^-F_m inflates the Fisher cost by ≈ ½ H_mm δ_m²/12, where
// H_mm is the cost Hessian's diagonal at the float optimum, so each next
// bit goes to the coordinate with the largest remaining expected damage
// (classic reverse water-filling).  The rounded solution is then
// polished by coordinate descent on the mixed grid and deployed on the
// mixed-format datapath (fixed/mixed_dot.h).
#pragma once

#include <cstdint>

#include "core/classifier.h"
#include "core/training_set.h"
#include "fixed/mixed_dot.h"
#include "linalg/vector.h"

namespace ldafp::core {

/// Classifier running the mixed-format datapath.
class MixedClassifier {
 public:
  /// Weights must be on their per-element grids.
  MixedClassifier(fixed::MixedFormat layout, linalg::Vector weights,
                  double threshold, fixed::FixedFormat feature_fmt,
                  fixed::RoundingMode mode =
                      fixed::RoundingMode::kNearestEven);

  const fixed::MixedFormat& layout() const { return layout_; }
  const linalg::Vector& weights() const { return weights_; }
  double threshold_real() const {
    return feature_fmt_.to_real(threshold_raw_);
  }
  std::size_t dim() const { return weights_.size(); }

  /// Eq. 12 decision through the mixed datapath.
  Label classify(const linalg::Vector& x,
                 fixed::DotDiagnostics* diag = nullptr) const;

 private:
  fixed::MixedFormat layout_;
  linalg::Vector weights_;
  fixed::FixedFormat feature_fmt_;
  std::int64_t threshold_raw_;  ///< threshold word in feature_fmt_
  fixed::RoundingMode mode_;
};

/// Allocator knobs.
struct BitAllocationOptions {
  int integer_bits = 2;      ///< shared K
  int min_frac_bits = 0;     ///< floor for every F_m
  int max_frac_bits = 16;    ///< cap for every F_m
  double rho = 0.9999;       ///< confidence level for feasibility repair
  fixed::RoundingMode rounding = fixed::RoundingMode::kNearestEven;
};

/// Allocation outcome.
struct BitAllocationResult {
  /// Chosen per-element formats (placeholder 1-element layout until a
  /// successful allocation overwrites it).
  fixed::MixedFormat layout = fixed::MixedFormat(1, {0});
  linalg::Vector weights;        ///< on the mixed grid
  double threshold = 0.0;
  double cost = 0.0;             ///< Fisher cost of the rounded weights
  linalg::Vector sensitivity;    ///< Hessian diagonal used for allocation
  bool found = false;

  /// The deployable classifier (requires found).
  MixedClassifier classifier(const fixed::FixedFormat& feature_fmt,
                             fixed::RoundingMode mode =
                                 fixed::RoundingMode::kNearestEven) const;
};

/// Allocates a total weight-storage budget of `total_weight_bits` across
/// the features of (already feature-scaled) `data`, quantizing against
/// `feature_fmt` (features share K with the weights).  Throws
/// InvalidArgumentError when the budget cannot cover K + min_frac_bits
/// per weight.
BitAllocationResult allocate_word_lengths(
    const TrainingSet& data, const fixed::FixedFormat& feature_fmt,
    int total_weight_bits,
    const BitAllocationOptions& options = BitAllocationOptions{});

}  // namespace ldafp::core
