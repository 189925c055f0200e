#include "hw/mac_datapath.h"

#include "fixed/lns.h"
#include "support/error.h"

namespace ldafp::hw {

MacDatapath::MacDatapath(fixed::FixedFormat fmt,
                         const linalg::Vector& weights, double threshold,
                         fixed::RoundingMode mode, fixed::AccumulatorMode acc,
                         fixed::DatapathKind kind)
    : fmt_(fmt),
      kind_(kind),
      datapath_(fixed::make_datapath(kind, fmt, mode, acc)),
      threshold_word_(datapath_->quantize(threshold)),
      mode_(mode),
      acc_(acc) {
  LDAFP_CHECK(weights.size() > 0, "datapath needs at least one weight");
  weight_words_.reserve(weights.size());
  for (std::size_t m = 0; m < weights.size(); ++m) {
    if (kind_ == fixed::DatapathKind::kTwosComplement) {
      LDAFP_CHECK(fmt_.representable(weights[m]),
                  "weight is not representable in the datapath format");
    }
    weight_words_.push_back(datapath_->quantize(weights[m]));
  }
}

MacTrace MacDatapath::run(const linalg::Vector& x) const {
  LDAFP_CHECK(x.size() == dim(), "feature dimension mismatch");
  return kind_ == fixed::DatapathKind::kTwosComplement
             ? run_twos_complement(x)
             : run_lns(x);
}

MacTrace MacDatapath::run_twos_complement(const linalg::Vector& x) const {
  MacTrace trace;
  // Accumulator register: QK.F in narrow mode, QK.(2F) in wide mode.
  const fixed::FixedFormat acc_fmt =
      acc_ == fixed::AccumulatorMode::kWide
          ? fixed::FixedFormat(fmt_.integer_bits(), 2 * fmt_.frac_bits())
          : fmt_;
  std::int64_t acc = 0;        // raw, wrapped into acc_fmt each cycle
  std::int64_t exact_sum = 0;  // same scale, never wrapped
  for (std::size_t m = 0; m < dim(); ++m) {
    // Input register: quantize the incoming feature (saturating ADC
    // front-end).
    const std::int64_t xm = fmt_.quantize_saturate(x[m], mode_);
    // Multiplier stage: exact product at 2F fractional bits.
    const std::int64_t wide_product = weight_words_[m] * xm;
    std::int64_t product;  // in accumulator scale
    if (acc_ == fixed::AccumulatorMode::kWide) {
      product = wide_product;
      const fixed::FixedFormat wide(fmt_.integer_bits(),
                                    2 * fmt_.frac_bits());
      if (product < wide.raw_min() || product > wide.raw_max()) {
        ++trace.product_overflows;
      }
    } else {
      // Rounding stage narrows the product to QK.F before the adder.
      const std::int64_t narrowed =
          fixed::narrow_raw(wide_product, fmt_.frac_bits(), mode_);
      if (narrowed < fmt_.raw_min() || narrowed > fmt_.raw_max()) {
        ++trace.product_overflows;
      }
      product = fmt_.wrap_raw(narrowed);
    }
    // Accumulator register (wrapping adder).
    const std::int64_t next = acc + product;
    const std::int64_t wrapped = acc_fmt.wrap_raw(next);
    if (wrapped != next) ++trace.accumulator_wraps;
    exact_sum += product;
    acc = wrapped;
    ++trace.cycles;
  }
  trace.final_overflow =
      exact_sum < acc_fmt.raw_min() || exact_sum > acc_fmt.raw_max();
  // Output stage: in wide mode the accumulator is rounded to QK.F.
  std::int64_t result = acc;
  if (acc_ == fixed::AccumulatorMode::kWide) {
    result = fmt_.wrap_raw(
        fixed::narrow_raw(acc, fmt_.frac_bits(), mode_));
  }
  trace.result_raw = result;
  // Comparator cycle.
  trace.decision_class_a = result >= threshold_word_;
  ++trace.cycles;
  return trace;
}

namespace {

/// The LNS saturation stage: exponents past the top of the storage
/// range clamp (setting `clipped`), exponents below the smallest normal
/// flush to exact zero — the same rule lns_dot_raw applies.
fixed::LnsValue lns_saturate(const fixed::LnsFormat& fmt, bool negative,
                             std::int64_t e, bool* clipped) {
  if (e < fmt.exp_raw_min_normal()) return fixed::LnsValue{};
  if (e > fmt.exp_raw_max()) {
    if (clipped != nullptr) *clipped = true;
    return fixed::LnsValue{false, negative, fmt.exp_raw_max()};
  }
  return fixed::LnsValue{false, negative, e};
}

}  // namespace

MacTrace MacDatapath::run_lns(const linalg::Vector& x) const {
  const fixed::LnsFormat lns = fixed::LnsFormat::matched(fmt_);
  MacTrace trace;
  fixed::LnsValue sum;  // exact zero
  for (std::size_t m = 0; m < dim(); ++m) {
    ++trace.cycles;
    // Input register: quantize onto the log grid (saturating).
    const fixed::LnsValue xm =
        fixed::lns_unpack(lns, fixed::lns_quantize(lns, x[m], mode_));
    const fixed::LnsValue wm = fixed::lns_unpack(lns, weight_words_[m]);
    if (wm.zero || xm.zero) continue;  // product register holds zero
    // Multiplier stage: one exponent add.
    fixed::LnsValue prod;
    prod.zero = false;
    prod.negative = wm.negative != xm.negative;
    prod.exp_raw = wm.exp_raw + xm.exp_raw;
    if (acc_ == fixed::AccumulatorMode::kNarrow) {
      // Narrow datapath: storage-width product register saturates.
      bool clipped = false;
      prod = lns_saturate(lns, prod.negative, prod.exp_raw, &clipped);
      if (clipped) ++trace.product_overflows;
      if (prod.zero) continue;
    }
    // Accumulator register: Mitchell log-domain adder.
    sum = fixed::lns_add(lns, sum, prod);
    if (acc_ == fixed::AccumulatorMode::kNarrow && !sum.zero) {
      bool clipped = false;
      sum = lns_saturate(lns, sum.negative, sum.exp_raw, &clipped);
      if (clipped) ++trace.accumulator_wraps;
    }
  }
  // Output stage: saturate the (wide-mode guard-bit) accumulator to the
  // storage grid.
  std::int64_t result;
  if (sum.zero) {
    result = fixed::lns_zero_word(lns);
  } else {
    bool clipped = false;
    const fixed::LnsValue out =
        lns_saturate(lns, sum.negative, sum.exp_raw, &clipped);
    trace.final_overflow = clipped;
    result = fixed::lns_pack(lns, out);
  }
  trace.result_raw = result;
  // Comparator cycle.
  trace.decision_class_a = fixed::lns_ge(lns, result, threshold_word_);
  ++trace.cycles;
  return trace;
}

}  // namespace ldafp::hw
