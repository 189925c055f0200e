#include "data/bci_synthetic.h"

#include <cmath>

#include "stats/normal.h"
#include "support/error.h"

namespace ldafp::data {

double bci_group_shift(const BciOptions& options) {
  LDAFP_CHECK(options.groups > 0, "need at least one feature group");
  LDAFP_CHECK(options.target_bayes_error > 0.0 &&
                  options.target_bayes_error < 0.5,
              "target Bayes error must lie in (0, 0.5)");
  // With perfect noise cancellation each group contributes an independent
  // projection ±shift + noise_gain·ε, so the combined SNR grows with
  // sqrt(groups): error = Φ(−sqrt(G)·shift/noise_gain).
  const double z = -stats::normal_quantile(options.target_bayes_error);
  return z * options.noise_gain / std::sqrt(
      static_cast<double>(options.groups));
}

LabeledDataset make_bci_synthetic(support::Rng& rng,
                                  const BciOptions& options) {
  const double base_shift = bci_group_shift(options);
  const std::size_t dim = 3 * options.groups;

  // Per-dataset coefficient jitter: groups differ slightly, as real
  // electrode channels do.
  std::vector<double> gain(options.groups);
  std::vector<double> shift(options.groups);
  std::vector<double> leak(options.groups);
  for (std::size_t g = 0; g < options.groups; ++g) {
    const double jitter = 1.0 + options.coeff_jitter * rng.gaussian();
    gain[g] = options.noise_gain * std::max(jitter, 0.2);
    shift[g] = base_shift * std::max(1.0 + options.coeff_jitter *
                                               rng.gaussian(), 0.2);
    leak[g] = kBciLeak * std::max(1.0 + options.coeff_jitter *
                                            rng.gaussian(), 0.2);
  }

  LabeledDataset out;
  for (const auto label : {core::Label::kClassA, core::Label::kClassB}) {
    const double sign = label == core::Label::kClassA ? -1.0 : 1.0;
    for (std::size_t n = 0; n < options.trials_per_class; ++n) {
      linalg::Vector x(dim);
      for (std::size_t g = 0; g < options.groups; ++g) {
        // Same triad structure as the paper's Eqs. 30-32, independent
        // noise per group.
        const double e1 = rng.gaussian();
        const double e2 = rng.gaussian();
        const double e3 = rng.gaussian();
        x[3 * g + 0] = sign * shift[g] + gain[g] * (e1 + e2 + e3);
        x[3 * g + 1] = leak[g] * e2 + e3;
        x[3 * g + 2] = e3;
      }
      out.add(std::move(x), label);
    }
  }
  return out;
}

}  // namespace ldafp::data
