// Synthetic stand-in for the paper's ECoG brain-computer-interface data
// (Sec. 5.2).
//
// The real data — 42 features extracted from electrocorticography while a
// tetraplegic subject imagined left/right movement, 70 trials per class
// (Wang et al. [16]) — is private.  This generator reproduces its
// *statistical role* in the experiment (DESIGN.md §3):
//
//  * 42 features grouped into 14 triads with the structure of the paper's
//    own synthetic construction (Eqs. 30-32): channel 3g carries a weak
//    class shift buried in noise shared with channels 3g+1 and 3g+2,
//    which themselves carry a near-collinear pair of noise factors.
//  * Optimal float LDA therefore needs large opposing weights on the
//    noise channels and tiny weights on the informative ones — the
//    weight-dynamic-range profile that makes rounded LDA collapse at
//    short word lengths while LDA-FP keeps working.
//  * Per-group shifts are calibrated so that *float LDA's 5-fold CV
//    error* on a 140-trial draw lands at the paper's observed ~19-20%
//    floor.  That measured floor includes LDA's estimation noise at
//    n=112 / p=42, so the generator's Bayes error target sits below it
//    (0.12 by default; the calibration sweep lives in
//    tests/data/bci_synthetic_test.cpp and DESIGN.md §3).
//  * 70 trials/class matches the paper, making the 5-fold CV noise
//    comparable ("not strictly monotonic due to the randomness of our
//    small data set").
#pragma once

#include "data/dataset.h"
#include "support/rng.h"

namespace ldafp::data {

/// Factor leakage into each triad's second channel (as Eq. 31's 0.001),
/// before the per-group jitter.
inline constexpr double kBciLeak = 0.02;

/// Generator parameters (defaults match the paper's data set shape).
struct BciOptions {
  std::size_t groups = 14;        ///< feature triads (3 × 14 = 42 features)
  std::size_t trials_per_class = 70;
  /// Calibrates the per-group shift; 0.12 makes float LDA's 5-fold CV
  /// error match the paper's ~19-20% floor (estimation noise included).
  double target_bayes_error = 0.12;
  double noise_gain = 0.58;       ///< shared-noise coefficient (as Eq. 30)
  /// Relative jitter on per-group coefficients so groups are not
  /// identical copies (drawn once per generated dataset).
  double coeff_jitter = 0.2;
};

/// Draws one BCI-like dataset (42 features by default).
LabeledDataset make_bci_synthetic(support::Rng& rng,
                                  const BciOptions& options = BciOptions{});

/// The per-group class shift implied by the target Bayes error.
double bci_group_shift(const BciOptions& options = BciOptions{});

}  // namespace ldafp::data
