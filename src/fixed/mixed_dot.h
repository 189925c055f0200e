// Mixed-format MAC datapath: per-weight fractional widths.
//
// The paper notes (Sec. 3) that "different elements of the weight vector
// can be assigned different word lengths" and leaves word-length
// optimization as future work; core/bit_allocation.h implements that
// optimizer and this is its hardware model.  Weights share K integer
// bits but each w_m carries its own F_m fractional bits (a cheaper ROM
// and multiplier for coarse weights); features arrive in a common QK.F_x
// format.  Products at scale 2^-(F_m+F_x) are left-shifted to the common
// scale 2^-(F_max+F_x) (a fixed wiring, not a barrel shifter), then
// accumulated in a wide wrapping register and rounded once into QK.F_x.
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/dot.h"
#include "fixed/format.h"
#include "linalg/vector.h"

namespace ldafp::fixed {

/// Per-weight fixed-point layout: shared integer bits, per-element
/// fractional bits.
class MixedFormat {
 public:
  /// Creates the layout.  Requires K >= 1, every F_m >= 0, and the
  /// accumulator width K + max(F_m) + F_x <= 62 (checked at dot time).
  MixedFormat(int integer_bits, std::vector<int> frac_bits);

  int integer_bits() const { return integer_bits_; }
  std::size_t size() const { return frac_bits_.size(); }
  int frac_bits(std::size_t m) const { return frac_bits_[m]; }
  const std::vector<int>& frac_bits() const { return frac_bits_; }
  int max_frac_bits() const { return max_frac_; }

  /// Per-element scalar format QK.F_m.
  FixedFormat element_format(std::size_t m) const;

  /// Total weight-storage bits Σ (K + F_m) — the cost the allocator
  /// spends.
  int total_bits() const;

  /// Rounds a real weight vector onto the per-element grids (saturating).
  linalg::Vector snap(const linalg::Vector& w,
                      RoundingMode mode = RoundingMode::kNearestEven) const;

  /// True when every element is exactly representable in its format.
  bool on_grid(const linalg::Vector& w) const;

 private:
  int integer_bits_;
  std::vector<int> frac_bits_;
  int max_frac_ = 0;
};

/// Mixed-format dot product against features in `feature_fmt` (must share
/// the integer-bit count).  Weights must be on their grids.  Returns the
/// raw word in `feature_fmt`.  Diagnostics as in dot_datapath.
std::int64_t mixed_dot_datapath(const MixedFormat& layout,
                                const linalg::Vector& weights,
                                const linalg::Vector& x,
                                const FixedFormat& feature_fmt,
                                RoundingMode mode = RoundingMode::kNearestEven,
                                DotDiagnostics* diag = nullptr);

}  // namespace ldafp::fixed
