// Synthesizable Verilog generation for the trained classifier.
//
// Emits the circuit the paper targets as RTL: a serial MAC datapath in
// QK.F with a wrapping wide accumulator (K + 2F bits), a weight ROM
// initialized from the trained coefficients, a final rounding stage, and
// the threshold comparator — one classification every M+1 cycles.  A
// self-checking testbench generator produces golden vectors from the
// cycle-level C++ model (hw::MacDatapath), so RTL simulation directly
// cross-checks this library's arithmetic.
//
// The generated code is plain Verilog-2001 (no vendor primitives); this
// repository validates the *generator* (structure, ROM contents, golden
// vectors) — running an HDL simulator is up to the user's flow.
#pragma once

#include <string>
#include <vector>

#include "core/classifier.h"
#include "linalg/vector.h"

namespace ldafp::hw {

/// The classifier module `ldafp_classifier`: streams one feature word
/// per cycle (x_valid/x_data), asserts done with the class-A decision
/// after the compare cycle.
std::string generate_classifier_verilog(const core::FixedClassifier& clf);

/// A golden input/output pair for the testbench.
struct GoldenVector {
  linalg::Vector features;       ///< real-valued inputs (quantized by TB)
  bool expected_class_a = false; ///< decision from the C++ datapath model
};

/// Builds golden vectors by running the C++ datapath on `inputs`.
std::vector<GoldenVector> make_golden_vectors(
    const core::FixedClassifier& clf,
    const std::vector<linalg::Vector>& inputs);

/// Self-checking testbench module `ldafp_classifier_tb`: drives each
/// golden vector through the DUT and $fatals on any mismatch.
std::string generate_testbench_verilog(
    const core::FixedClassifier& clf,
    const std::vector<GoldenVector>& vectors);

/// Writes module + testbench to `<dir>/ldafp_classifier.v` and
/// `<dir>/ldafp_classifier_tb.v`.  Throws IoError on failure.
void save_verilog(const std::string& dir,
                  const core::FixedClassifier& clf,
                  const std::vector<GoldenVector>& vectors);

}  // namespace ldafp::hw
