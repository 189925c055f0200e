#include "hw/power_model.h"

#include "support/error.h"

namespace ldafp::hw {
namespace {

/// LNS exponent adder (the "multiplier") — one W-bit add, per bit.
constexpr double kLnsMulCoeff = 0.4;
/// LNS Mitchell log-adder datapath (align shift, two adds, priority
/// encoder) + registers, per bit.
constexpr double kLnsAddCoeff = 2.2;

}  // namespace

PowerModel::PowerModel(PowerModelOptions options) : options_(options) {
  LDAFP_CHECK(options_.quadratic_coeff >= 0.0 && options_.linear_coeff >= 0.0,
              "power model coefficients must be non-negative");
  LDAFP_CHECK(options_.quadratic_coeff > 0.0 || options_.linear_coeff > 0.0,
              "power model must have a positive term");
}

double PowerModel::power(int word_length) const {
  return power(fixed::DatapathKind::kTwosComplement, word_length);
}

double PowerModel::power(fixed::DatapathKind kind, int word_length) const {
  LDAFP_CHECK(word_length >= 1, "word length must be >= 1");
  const double w = static_cast<double>(word_length);
  switch (kind) {
    case fixed::DatapathKind::kTwosComplement:
      return options_.quadratic_coeff * w * w + options_.linear_coeff * w;
    case fixed::DatapathKind::kLns:
      return (kLnsMulCoeff + kLnsAddCoeff) * w;
  }
  throw InvalidArgumentError("power: unknown datapath kind");
}

double PowerModel::power_ratio(int baseline_word_length,
                               int candidate_word_length) const {
  return power(baseline_word_length) / power(candidate_word_length);
}

double PowerModel::power_ratio(fixed::DatapathKind baseline_kind,
                               int baseline_word_length,
                               fixed::DatapathKind candidate_kind,
                               int candidate_word_length) const {
  return power(baseline_kind, baseline_word_length) /
         power(candidate_kind, candidate_word_length);
}

double PowerModel::energy_per_classification(int word_length,
                                             std::int64_t cycles) const {
  return energy_per_classification(fixed::DatapathKind::kTwosComplement,
                                   word_length, cycles);
}

double PowerModel::energy_per_classification(fixed::DatapathKind kind,
                                             int word_length,
                                             std::int64_t cycles) const {
  LDAFP_CHECK(cycles >= 0, "cycle count must be non-negative");
  return power(kind, word_length) * static_cast<double>(cycles);
}

}  // namespace ldafp::hw
