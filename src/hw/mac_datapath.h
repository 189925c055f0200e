// Cycle-level model of the on-chip classifier datapath.
//
// Two circuit families are modeled behind one interface, selected by
// fixed::DatapathKind:
//
//  * Two's complement (the paper's target): a serial multiply-accumulate
//    engine in one shared QK.F format — per cycle one product w_m·x_m is
//    formed, rounded to QK.F, and added (wrapping two's complement) into
//    the accumulator; a final W-bit compare against the stored threshold
//    yields the class bit.
//  * LNS: the multiplier collapses to an exponent adder (one W-1 bit
//    add per product) and the accumulator becomes the Mitchell
//    log-domain adder of fixed/lns.h (shift, two adds, priority encode);
//    saturating instead of wrapping, as LNS hardware clamps.
//
// This module executes the schedule register by register, counts cycles
// and overflow events, and is checked bit-for-bit against the
// functional model (the Datapath dot of fixed/datapath.h) by the test
// suite.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fixed/datapath.h"
#include "fixed/dot.h"
#include "fixed/format.h"
#include "linalg/vector.h"

namespace ldafp::hw {

/// Execution trace of one classification.
struct MacTrace {
  std::int64_t cycles = 0;        ///< MAC cycles + 1 compare cycle
  int product_overflows = 0;      ///< products that wrapped/saturated
  int accumulator_wraps = 0;      ///< adds that wrapped/saturated
  bool final_overflow = false;    ///< exact/final sum left the range
  std::int64_t result_raw = 0;    ///< accumulator at the end (raw word)
  bool decision_class_a = false;  ///< comparator output
};

/// The serial MAC datapath with weight ROM and threshold register.
class MacDatapath {
 public:
  /// Loads the weight ROM.  On the two's-complement backend weights
  /// must be exactly representable; on LNS they are quantized to the
  /// nearest log-grid point (the grid's reals are irrational, so exact
  /// representability is not a meaningful contract there).
  MacDatapath(fixed::FixedFormat fmt, const linalg::Vector& weights,
              double threshold,
              fixed::RoundingMode mode = fixed::RoundingMode::kNearestEven,
              fixed::AccumulatorMode acc = fixed::AccumulatorMode::kWide,
              fixed::DatapathKind kind =
                  fixed::DatapathKind::kTwosComplement);

  const fixed::FixedFormat& format() const { return fmt_; }
  fixed::DatapathKind kind() const { return kind_; }
  std::size_t dim() const { return weight_words_.size(); }

  /// Runs one classification on a real feature vector (features are
  /// quantized on the input interface, saturating).  result_raw and the
  /// decision bit are bit-identical to the functional Datapath's
  /// dot + ge (asserted by tests/hw/mac_datapath_test.cpp and
  /// tests/lns/lns_hw_test.cpp).
  MacTrace run(const linalg::Vector& x) const;

  /// Number of cycles one classification takes (M MACs + 1 compare).
  std::int64_t cycles_per_classification() const {
    return static_cast<std::int64_t>(dim()) + 1;
  }

 private:
  MacTrace run_twos_complement(const linalg::Vector& x) const;
  MacTrace run_lns(const linalg::Vector& x) const;

  fixed::FixedFormat fmt_;
  fixed::DatapathKind kind_;
  std::shared_ptr<const fixed::Datapath> datapath_;
  std::vector<std::int64_t> weight_words_;
  std::int64_t threshold_word_;
  fixed::RoundingMode mode_;
  fixed::AccumulatorMode acc_;
};

}  // namespace ldafp::hw
