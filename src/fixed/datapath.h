// Backend-agnostic arithmetic datapath API (DESIGN.md §16).
//
// A Datapath bundles everything the classifier stack needs to know
// about one on-chip arithmetic implementation: the word layout (keyed
// by the QK.F descriptor the trainer optimizes), how reals quantize to
// raw words and back, the dot/MAC semantics under the configured
// rounding and accumulator modes, the decision comparator, and a
// stable serialization tag.  `FixedClassifier`, `runtime::BatchScorer`,
// `hw::MacDatapath`, `hw::PowerModel`, and `hw::verilog_gen` all
// consume this interface, so a new arithmetic backend lands by
// implementing it once.
//
// Two backends ship today:
//  * kTwosComplement — the paper's QK.F datapath: the scalar MAC core
//    `dot_datapath_raw` (fixed/dot.h); runtime::BatchScorer runs full
//    tiles on the SIMD kernels of fixed/simd.h and every other row on
//    dot().
//  * kLns — sign + fixed-point log2 magnitude (fixed/lns.h), layout
//    derived deterministically from the same QK.F descriptor via
//    LnsFormat::matched.  Scalar only; BatchScorer scores every row on
//    dot().
//
// All values cross this interface as raw int64 words (sign-extended
// W-bit patterns), so buffers, model files, and the wire format stay
// backend-agnostic; only a Datapath interprets the bits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fixed/dot.h"
#include "fixed/format.h"
#include "fixed/rounding.h"

namespace ldafp::fixed {

/// Which arithmetic backend a Datapath implements.  Values are stable
/// wire codes (model format v2 datapath section, DESIGN.md §16).
enum class DatapathKind : std::uint8_t {
  kTwosComplement = 0,  ///< QK.F two's complement (the paper's datapath)
  kLns = 1,             ///< logarithmic number system (fixed/lns.h)
};

/// Stable display / serialization tag ("fixed", "lns").
const char* to_string(DatapathKind kind);

/// Parses a datapath tag ("fixed"/"twos-complement" or "lns").
/// Returns false on unknown tags.
bool parse_datapath_kind(const std::string& text, DatapathKind* out);

/// One arithmetic backend, fully configured (format + rounding +
/// accumulator).  Immutable and thread-safe: every method is const and
/// touches no shared mutable state, so one instance may serve any
/// number of threads (the determinism tests in tests/lns rely on it).
class Datapath {
 public:
  virtual ~Datapath() = default;

  /// Backend identity.
  virtual DatapathKind kind() const = 0;

  /// The QK.F descriptor this datapath was derived from.  For the
  /// two's-complement backend this is the storage layout itself; for
  /// LNS it is the design-space key that LnsFormat::matched maps to the
  /// log-domain layout.  Word length is the same either way — it is
  /// what the power model charges for.
  virtual const FixedFormat& format() const = 0;

  /// Rounding mode used by quantize() and by the dot's rounding stages.
  virtual RoundingMode rounding() const = 0;

  /// Accumulator register model used by dot().
  virtual AccumulatorMode accumulator() const = 0;

  /// Quantizes a real value to this backend's nearest raw word
  /// (saturating at the representable range).  NaN throws
  /// InvalidArgumentError.
  virtual std::int64_t quantize(double value) const = 0;

  /// Real value of a raw word.
  virtual double to_real(std::int64_t raw) const = 0;

  /// The on-chip dot product over raw words, with this backend's MAC
  /// semantics under rounding()/accumulator().  Deterministic: a pure
  /// function of the operand words.  `diag` (optional) receives the
  /// backend's overflow taxonomy (see fixed/dot.h and lns_dot_raw).
  virtual std::int64_t dot(const std::int64_t* w, const std::int64_t* x,
                           std::size_t n,
                           DotDiagnostics* diag = nullptr) const = 0;

  /// Value-order comparison a >= b on raw words — the threshold
  /// comparator of the decision stage.
  virtual bool ge(std::int64_t a, std::int64_t b) const = 0;
};

/// Builds the datapath for `kind` over the QK.F descriptor `fmt`.
/// Two's-complement requires the dot envelope (W <= 31, K + 2F <= 62);
/// LNS requires W >= 4.  The result is immutable and shareable.
std::shared_ptr<const Datapath> make_datapath(
    DatapathKind kind, const FixedFormat& fmt,
    RoundingMode mode = RoundingMode::kNearestEven,
    AccumulatorMode acc = AccumulatorMode::kWide);

}  // namespace ldafp::fixed
