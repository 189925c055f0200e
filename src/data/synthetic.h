// The paper's synthetic data set (Sec. 5.1, Eqs. 30-32).
//
//   x1 = ∓0.5 + 0.58(ε1 + ε2 + ε3)   (class A: -0.5, class B: +0.5)
//   x2 = 0.001 ε2 + ε3
//   x3 = ε3
//
// Only x1 carries class information; x2 and x3 exist so a classifier with
// enough weight dynamic range can cancel the ε2/ε3 noise (which demands
// w2, w3 ≈ ∓580·w1 — the dynamic range that breaks rounded LDA at short
// word lengths, Fig. 4).  The Bayes-optimal float error is
// Φ(-0.5/0.58) ≈ 19.4%, matching the paper's 19.33% floor in Table 1.
#pragma once

#include "data/dataset.h"
#include "support/rng.h"

namespace ldafp::data {

/// ε2 leakage into x2 (Eq. 31).
inline constexpr double kSyntheticLeak = 0.001;

/// Generator parameters (defaults = the paper's Eqs. 30-32).
struct SyntheticOptions {
  double class_shift = 0.5;   ///< ±shift on x1
  double noise_gain = 0.58;   ///< shared-noise coefficient on x1
};

/// Draws n_per_class samples of each class.
LabeledDataset make_synthetic(std::size_t n_per_class, support::Rng& rng,
                              const SyntheticOptions& options =
                                  SyntheticOptions{});

/// The infinite-data Bayes error of the float-optimal linear classifier,
/// Φ(-shift/noise_gain): the floor both algorithms approach at large
/// word lengths.
double synthetic_bayes_error(const SyntheticOptions& options =
                                 SyntheticOptions{});

}  // namespace ldafp::data
