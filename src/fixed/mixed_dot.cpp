#include "fixed/mixed_dot.h"

#include <algorithm>

#include "support/error.h"

namespace ldafp::fixed {

MixedFormat::MixedFormat(int integer_bits, std::vector<int> frac_bits)
    : integer_bits_(integer_bits), frac_bits_(std::move(frac_bits)) {
  LDAFP_CHECK(integer_bits_ >= 1, "mixed format needs K >= 1");
  LDAFP_CHECK(!frac_bits_.empty(), "mixed format needs >= 1 element");
  for (const int f : frac_bits_) {
    LDAFP_CHECK(f >= 0, "fractional bits must be >= 0");
    max_frac_ = std::max(max_frac_, f);
  }
  LDAFP_CHECK(integer_bits_ + max_frac_ <= 62,
              "mixed format word too wide");
}

FixedFormat MixedFormat::element_format(std::size_t m) const {
  LDAFP_CHECK(m < size(), "mixed format index out of range");
  return FixedFormat(integer_bits_, frac_bits_[m]);
}

int MixedFormat::total_bits() const {
  int total = 0;
  for (const int f : frac_bits_) total += integer_bits_ + f;
  return total;
}

linalg::Vector MixedFormat::snap(const linalg::Vector& w,
                                 RoundingMode mode) const {
  LDAFP_CHECK(w.size() == size(), "mixed snap dimension mismatch");
  linalg::Vector out(w.size());
  for (std::size_t m = 0; m < w.size(); ++m) {
    out[m] = element_format(m).round_to_grid(w[m], mode);
  }
  return out;
}

bool MixedFormat::on_grid(const linalg::Vector& w) const {
  LDAFP_CHECK(w.size() == size(), "mixed on_grid dimension mismatch");
  for (std::size_t m = 0; m < w.size(); ++m) {
    if (!element_format(m).representable(w[m])) return false;
  }
  return true;
}

std::int64_t mixed_dot_datapath(const MixedFormat& layout,
                                const linalg::Vector& weights,
                                const linalg::Vector& x,
                                const FixedFormat& feature_fmt,
                                RoundingMode mode, DotDiagnostics* diag) {
  LDAFP_CHECK(weights.size() == layout.size() && x.size() == layout.size(),
              "mixed dot dimension mismatch");
  LDAFP_CHECK(feature_fmt.integer_bits() == layout.integer_bits(),
              "feature format must share the layout's integer bits");
  LDAFP_CHECK(layout.on_grid(weights),
              "weights must be on their per-element grids");
  const int acc_frac = layout.max_frac_bits() + feature_fmt.frac_bits();
  LDAFP_CHECK(layout.integer_bits() + acc_frac <= 62,
              "mixed accumulator too wide");
  const FixedFormat acc_fmt(layout.integer_bits(), acc_frac);

  std::int64_t acc = 0;
  std::int64_t exact_sum = 0;
  for (std::size_t m = 0; m < layout.size(); ++m) {
    const FixedFormat wfmt = layout.element_format(m);
    const std::int64_t w_raw = wfmt.quantize_saturate(weights[m], mode);
    const std::int64_t x_raw = feature_fmt.quantize_saturate(x[m], mode);
    // Product at scale 2^-(F_m + F_x); align to the accumulator scale.
    const std::int64_t product =
        (w_raw * x_raw) << (layout.max_frac_bits() - wfmt.frac_bits());
    if (diag != nullptr &&
        (product < acc_fmt.raw_min() || product > acc_fmt.raw_max())) {
      ++diag->product_overflows;
    }
    exact_sum += product;
    const std::int64_t next = acc + product;
    const std::int64_t wrapped = acc_fmt.wrap_raw(next);
    if (diag != nullptr && wrapped != next) ++diag->accumulator_wraps;
    acc = wrapped;
  }
  if (diag != nullptr) {
    diag->final_overflow =
        exact_sum < acc_fmt.raw_min() || exact_sum > acc_fmt.raw_max();
  }
  // Output stage: round the accumulator down to the feature format.
  return feature_fmt.wrap_raw(narrow_raw(acc, layout.max_frac_bits(), mode));
}

}  // namespace ldafp::fixed
