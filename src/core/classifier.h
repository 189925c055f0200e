// Linear classifiers: the floating-point reference and the on-chip
// implementation over a configurable arithmetic datapath.
//
// Both evaluate the paper's decision rule (Eq. 12):
//     wᵀx - wᵀ(μ_A + μ_B)/2  >= 0  ->  class A, else class B.
// The on-chip version computes wᵀx with the selected backend's MAC
// datapath (fixed/datapath.h) and compares the W-bit result against
// the stored W-bit threshold with that backend's comparator.  The
// default backend is the paper's QK.F two's-complement datapath
// (per-product rounding, wrapping accumulation, exact magnitude
// comparator — the circuit the paper targets); the LNS backend swaps
// in add-for-multiply log-domain arithmetic behind the same interface.
// FixedClassifier scores one sample; batches go through
// runtime::BatchScorer, which replays this datapath bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fixed/datapath.h"
#include "fixed/dot.h"
#include "fixed/format.h"
#include "linalg/vector.h"

namespace ldafp::core {

/// Class labels of the binary problem.
enum class Label : std::uint8_t { kClassA = 0, kClassB = 1 };

/// Floating-point linear classifier (the conventional-LDA reference).
class LinearClassifier {
 public:
  /// Builds from a weight vector and decision threshold
  /// b = wᵀ(μ_A + μ_B)/2.
  LinearClassifier(linalg::Vector weights, double threshold);

  const linalg::Vector& weights() const { return weights_; }
  double threshold() const { return threshold_; }
  std::size_t dim() const { return weights_.size(); }

  /// Projection y = wᵀx.
  double project(const linalg::Vector& x) const;

  /// Decision rule of Eq. 12.
  Label classify(const linalg::Vector& x) const;

 private:
  linalg::Vector weights_;
  double threshold_;
};

/// Linear classifier executing an on-chip arithmetic datapath.
///
/// Named for the paper's fixed-point implementation it started as; with
/// the Datapath API it fronts any backend.  Weights, threshold and
/// projection are raw backend words (weight_words, threshold_raw,
/// project_raw); datapath().to_real turns any of them into its exact
/// real value.
class FixedClassifier {
 public:
  /// Builds from real weights and a real threshold, both quantized
  /// internally with saturation under the classifier's rounding `mode`
  /// (the same words the ROM emitter and the serving BatchScorer see).
  /// Trained weights are already on the QK.F grid (Eq. 13) and pass
  /// through bit-exactly under every mode; callers that must own the
  /// rounding decision quantize first (fixed::snap_to_grid).  `kind`
  /// selects the arithmetic backend; for kLns the same QK.F descriptor
  /// keys the log-domain layout (fixed::LnsFormat::matched).
  FixedClassifier(fixed::FixedFormat fmt, const linalg::Vector& weights,
                  double threshold,
                  fixed::RoundingMode mode = fixed::RoundingMode::kNearestEven,
                  fixed::AccumulatorMode acc = fixed::AccumulatorMode::kWide,
                  fixed::DatapathKind kind =
                      fixed::DatapathKind::kTwosComplement);

  /// Builds over an existing datapath (shared, immutable), quantizing
  /// the real weights/threshold through it.
  FixedClassifier(std::shared_ptr<const fixed::Datapath> datapath,
                  const linalg::Vector& weights, double threshold);

  /// Rebuilds a classifier from already-quantized raw words — the
  /// model-file load path, which must reproduce the stored words
  /// bit-exactly without a real-value round trip (log-domain grids do
  /// not survive one).  Words must be in the backend's raw range.
  static FixedClassifier from_raw_words(
      std::shared_ptr<const fixed::Datapath> datapath,
      std::vector<std::int64_t> weight_words, std::int64_t threshold_word);

  const fixed::FixedFormat& format() const { return datapath_->format(); }
  /// The arithmetic backend (shared with BatchScorer snapshots).
  const fixed::Datapath& datapath() const { return *datapath_; }
  std::shared_ptr<const fixed::Datapath> datapath_ptr() const {
    return datapath_;
  }
  fixed::DatapathKind datapath_kind() const { return datapath_->kind(); }

  /// The quantized weights as reals (exact grid values, any backend).
  linalg::Vector weights_real() const;
  /// The quantized weight words (raw backend encoding, any backend).
  /// Hot-path callers (the serving runtime's BatchScorer, ROM export)
  /// read these instead of re-quantizing weights_real() on every call.
  const std::vector<std::int64_t>& weight_words() const {
    return weight_words_;
  }
  /// The quantized threshold as a real (exact grid value, any backend).
  double threshold_real() const {
    return datapath_->to_real(threshold_word_);
  }
  /// The threshold word (exact bits, for W-bit comparator clients).
  std::int64_t threshold_raw() const { return threshold_word_; }
  std::size_t dim() const { return weight_words_.size(); }

  /// Runs the datapath on a real feature vector (features are quantized
  /// with saturation first, as the paper's preprocessing prescribes)
  /// and returns the raw projection word.  Optional diagnostics report
  /// overflow events.  Works on every backend.
  std::int64_t project_raw(const linalg::Vector& x,
                           fixed::DotDiagnostics* diag = nullptr) const;

  /// Decision rule: datapath projection compared against the stored
  /// threshold with the backend's W-bit comparator.
  Label classify(const linalg::Vector& x,
                 fixed::DotDiagnostics* diag = nullptr) const;

  /// The accumulator architecture this classifier models.
  fixed::AccumulatorMode accumulator() const {
    return datapath_->accumulator();
  }
  /// The rounding mode of the datapath's narrowing stages.
  fixed::RoundingMode rounding() const { return datapath_->rounding(); }

 private:
  FixedClassifier(std::shared_ptr<const fixed::Datapath> datapath,
                  std::vector<std::int64_t> weight_words,
                  std::int64_t threshold_word);

  std::shared_ptr<const fixed::Datapath> datapath_;
  std::vector<std::int64_t> weight_words_;
  std::int64_t threshold_word_;
};

}  // namespace ldafp::core
