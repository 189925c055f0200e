#include "data/synthetic.h"

#include "stats/normal.h"

namespace ldafp::data {

LabeledDataset make_synthetic(std::size_t n_per_class, support::Rng& rng,
                              const SyntheticOptions& options) {
  LabeledDataset out;
  for (const auto label : {core::Label::kClassA, core::Label::kClassB}) {
    const double shift =
        label == core::Label::kClassA ? -options.class_shift
                                      : options.class_shift;
    for (std::size_t n = 0; n < n_per_class; ++n) {
      const double e1 = rng.gaussian();
      const double e2 = rng.gaussian();
      const double e3 = rng.gaussian();
      linalg::Vector x(3);
      x[0] = shift + options.noise_gain * (e1 + e2 + e3);  // Eq. 30
      x[1] = kSyntheticLeak * e2 + e3;                     // Eq. 31
      x[2] = e3;                                           // Eq. 32
      out.add(std::move(x), label);
    }
  }
  return out;
}

double synthetic_bayes_error(const SyntheticOptions& options) {
  // After perfect ε2/ε3 cancellation the projection is
  // ±shift + noise_gain·ε1, so the error is Φ(-shift/noise_gain).
  return stats::normal_cdf(-options.class_shift / options.noise_gain);
}

}  // namespace ldafp::data
