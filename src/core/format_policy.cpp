#include "core/format_policy.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"
#include "support/error.h"

namespace ldafp::core {

FormatChoice choose_format(const TrainingSet& data, int word_length,
                           double beta, int integer_bits) {
  LDAFP_CHECK(data.valid(), "training set must have samples in both classes");
  LDAFP_CHECK(word_length >= 1, "word length must be >= 1");
  LDAFP_CHECK(integer_bits >= 1 && integer_bits <= word_length,
              "need 1 <= integer_bits <= word_length");
  LDAFP_CHECK(beta >= 0.0, "beta must be non-negative");

  const fixed::FixedFormat fmt(integer_bits, word_length - integer_bits);

  // Worst-case magnitude any feature can reach: β-confidence envelope of
  // the fitted per-class Gaussians, and the observed sample extremes.
  const stats::TwoClassModel model = fit_two_class_model(data);
  double reach = 0.0;
  const std::size_t dim = data.dim();
  for (std::size_t m = 0; m < dim; ++m) {
    for (const stats::GaussianModel* cls :
         {&model.class_a, &model.class_b}) {
      const double mu = cls->mu()[m];
      const double sd = cls->marginal_sigma(m);
      reach = std::max(reach, std::fabs(mu) + beta * sd);
    }
  }
  std::vector<linalg::Vector> all = data.class_a;
  all.insert(all.end(), data.class_b.begin(), data.class_b.end());
  const stats::FeatureRange range = stats::feature_range(all);
  reach = std::max({reach, range.min.norm_inf(), range.max.norm_inf()});

  FormatChoice choice{fmt, 1.0};
  if (reach > 0.0) {
    // Largest power of two with scale * reach <= min(|min_value|,
    // max_value); use the max side (smaller) so both signs fit.
    const double budget = std::min(-fmt.min_value(), fmt.max_value());
    const int exponent =
        static_cast<int>(std::floor(std::log2(budget / reach)));
    choice.feature_scale = std::ldexp(1.0, exponent);
  }
  return choice;
}

}  // namespace ldafp::core
