#include "fixed/dot.h"

#include "support/error.h"

namespace ldafp::fixed {

const char* to_string(AccumulatorMode mode) {
  switch (mode) {
    case AccumulatorMode::kWide: return "wide";
    case AccumulatorMode::kNarrow: return "narrow";
  }
  return "?";
}

namespace {

// Without a DotDiagnostics each kernel runs a plain MAC loop, the one
// the scoring fallback takes: no exact-sum shadow, no per-step tests.
// Wrapping into a B-bit word is reduction modulo 2^B, so that loop sums
// modulo 2^64 and wraps once, which lands on the same word as wrapping
// after every step.

/// Narrow datapath: every product rounded to QK.F, accumulator wraps in
/// QK.F.
std::int64_t dot_narrow(const std::int64_t* w, const std::int64_t* x,
                        std::size_t n, const FixedFormat& fmt,
                        RoundingMode mode, DotDiagnostics* diag) {
  if (diag == nullptr) {
    std::uint64_t sum = 0;
    for (std::size_t m = 0; m < n; ++m) {
      sum += static_cast<std::uint64_t>(
          narrow_raw(w[m] * x[m], fmt.frac_bits(), mode));
    }
    return fmt.wrap_raw(static_cast<std::int64_t>(sum));
  }
  std::int64_t acc = 0;  // QK.F raw, wrapped
  // Exact (unbounded) sum of the wrapped products, to report whether the
  // final value is corrupted; narrowed products fit ~W bits so any
  // realistic feature count fits int64.
  std::int64_t exact_sum = 0;
  for (std::size_t m = 0; m < n; ++m) {
    // The narrowed (pre-wrap) product decides the overflow diagnostic: a
    // value outside [raw_min, raw_max] overflowed even if the wrap lands
    // back on an in-range word.
    const std::int64_t narrowed =
        narrow_raw(w[m] * x[m], fmt.frac_bits(), mode);
    if (narrowed < fmt.raw_min() || narrowed > fmt.raw_max()) {
      ++diag->product_overflows;
    }
    const std::int64_t prod = fmt.wrap_raw(narrowed);
    const std::int64_t next = acc + prod;
    if (next < fmt.raw_min() || next > fmt.raw_max()) {
      ++diag->accumulator_wraps;
    }
    exact_sum += prod;
    acc = fmt.wrap_raw(next);
  }
  diag->final_overflow =
      exact_sum < fmt.raw_min() || exact_sum > fmt.raw_max();
  return acc;
}

/// Wide datapath: exact products at 2F fractional bits, accumulator with
/// K integer + 2F fractional bits (wrapping), one final rounding to QK.F.
std::int64_t dot_wide(const std::int64_t* w, const std::int64_t* x,
                      std::size_t n, const FixedFormat& fmt,
                      RoundingMode mode, DotDiagnostics* diag) {
  const FixedFormat wide(fmt.integer_bits(), 2 * fmt.frac_bits());
  std::int64_t acc = 0;  // wide raw, scale 2^-2F, wrapped
  if (diag == nullptr) {
    std::uint64_t sum = 0;
    for (std::size_t m = 0; m < n; ++m) {
      sum += static_cast<std::uint64_t>(w[m] * x[m]);  // scale 2^-2F
    }
    acc = wide.wrap_raw(static_cast<std::int64_t>(sum));
  } else {
    // Unwrapped exact sum at the same scale, for the final-overflow
    // diagnostic.  Products reach 2^(2W-2) <= 2^60, so an int64 running
    // sum could itself overflow after a handful of terms on the widest
    // legal formats — keep the diagnostic in 128 bits.
    __int128 exact_sum = 0;
    for (std::size_t m = 0; m < n; ++m) {
      const std::int64_t product = w[m] * x[m];  // scale 2^-2F
      if (product < wide.raw_min() || product > wide.raw_max()) {
        ++diag->product_overflows;
      }
      exact_sum += product;
      const std::int64_t next = acc + product;
      const std::int64_t wrapped = wide.wrap_raw(next);
      if (wrapped != next) ++diag->accumulator_wraps;
      acc = wrapped;
    }
    diag->final_overflow =
        exact_sum < wide.raw_min() || exact_sum > wide.raw_max();
  }
  // Final rounding stage: drop F fractional bits, wrap into QK.F.
  return fmt.wrap_raw(narrow_raw(acc, fmt.frac_bits(), mode));
}

}  // namespace

std::int64_t dot_datapath_raw(const std::int64_t* w, const std::int64_t* x,
                              std::size_t n, const FixedFormat& fmt,
                              RoundingMode mode, AccumulatorMode acc,
                              DotDiagnostics* diag) {
  LDAFP_CHECK(fmt.integer_bits() + 2 * fmt.frac_bits() <= 62,
              "dot_datapath requires K + 2F <= 62");
  // Signed-overflow envelope: a raw product needs 2W-1 bits, and the
  // wrapped wide accumulator plus one product needs K+2F+1 more head
  // room; W <= 31 together with K+2F <= 62 keeps every intermediate
  // inside int64.
  LDAFP_CHECK(fmt.word_length() <= 31,
              "dot_datapath limited to word lengths <= 31 bits "
              "(raw products must fit int64)");
  return acc == AccumulatorMode::kWide ? dot_wide(w, x, n, fmt, mode, diag)
                                       : dot_narrow(w, x, n, fmt, mode, diag);
}

}  // namespace ldafp::fixed
