// Portable SIMD kernels for the batch-scoring hot path (DESIGN.md §14).
//
// The serving path evaluates y_r = Σ_m w_m · x_{r,m} on the QK.F MAC
// datapath for whole batches of samples.  Because fixed-point inference
// is exact integer math, the kernel can be vectorized across samples
// with zero numerical risk: each vector lane executes the same integer
// operation sequence the scalar datapath (fixed::dot_datapath_raw)
// executes for one sample, so lanes cannot change results.  The tests
// assert bit-identity between every compiled vector backend and that
// reference across the full FixedFormat × RoundingMode ×
// AccumulatorMode sweep.
//
// This layer holds vector kernels only.  It has no scalar copy of the
// MAC: whatever score_tile declines (partial tiles, plans that are not
// defer_safe, the scalar backend) the caller scores through
// fixed::Datapath::dot, the one scalar reference
// (runtime::BatchScorer::score is that caller).
//
// Layout: batches are packed AoSoA — tiles of kLane samples, feature-
// major within a tile (word (r, m) lives at tile[m * kLane + r % kLane]).
// One tile is the unit of work; a kernel call scores kLane samples.
// kLane is a fixed layout constant (not the vector width of the chosen
// backend) so packed buffers are identical on every architecture.
//
// Wrap deferral: the scalar datapath wraps the accumulator into its
// register width after every addition.  Two's-complement wrapping is
// reduction mod 2^W, and modular reduction commutes with addition, so
// the wraps can all be deferred to one final reduction — provided the
// unwrapped int64 sum cannot overflow (which would be UB, not wrapping).
// make_plan() decides this per classifier (DotPlan::defer_safe) from the
// word length and feature count; the vector kernels run only where
// deferral is provably safe, so they are exact-by-construction
// everywhere they run.
//
// Backends: AVX2 (x86-64, runtime-detected), NEON (aarch64), scalar
// (no kernel: score_tile declines every tile).  Dispatch picks the best
// compiled+supported backend once; tests and the CI scalar-fallback leg
// can force a backend with set_backend_override() or the LDAFP_SIMD
// environment variable (scalar|avx2|neon|auto).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fixed/dot.h"
#include "fixed/format.h"

namespace ldafp::fixed::simd {

/// AoSoA tile width in samples.  A layout constant shared by every
/// backend: AVX2 runs a tile as two 4×int64 vectors, NEON as four
/// 2×int64 vectors, scalar as a lane loop.
inline constexpr std::size_t kLane = 8;

/// Kernel implementation selected at runtime.
enum class Backend { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Short display name ("scalar"/"avx2"/"neon").
const char* to_string(Backend backend);

/// True when `backend` was compiled in and the CPU supports it.
bool backend_available(Backend backend);

/// The backend score_tile dispatches to (override > LDAFP_SIMD env >
/// best detected).
Backend active_backend();

/// Forces a backend for this process (test / bench hook).  Throws
/// InvalidArgumentError when the backend is unavailable.
void set_backend_override(Backend backend);

/// Returns dispatch to automatic detection.
void clear_backend_override();

/// Immutable description of one classifier's dot kernel.  Holds a
/// borrowed pointer to the weight words; do not use it past the
/// weights' lifetime.  A default-constructed plan is not defer_safe, so
/// score_tile declines it.
struct DotPlan {
  const std::int64_t* weights = nullptr;  ///< dim raw QK.F words
  std::size_t dim = 0;
  int frac_bits = 0;         ///< F
  int word_length = 0;       ///< W = K + F
  int wide_word_length = 0;  ///< K + 2F, the wide accumulator register
  RoundingMode mode = RoundingMode::kNearestEven;
  AccumulatorMode acc = AccumulatorMode::kWide;
  /// True when every intermediate wrap may be deferred to the end of
  /// the reduction without risking int64 overflow (see file comment).
  bool defer_safe = false;
};

/// Validates the format against the scoring datapath's integer-overflow
/// envelope and precomputes the wrap-deferral decision.  Throws
/// InvalidArgumentError unless W <= 31 and K + 2F <= 62 (the bounds
/// under which every raw product and wrapped accumulator step fits
/// int64 — see the signed-overflow audit in tests/fixed/dot_test.cpp).
DotPlan make_plan(const std::int64_t* weights, std::size_t dim,
                  const FixedFormat& fmt, RoundingMode mode,
                  AccumulatorMode acc);

/// Scores one full AoSoA tile on the active vector backend: `x` holds
/// dim * kLane words, feature-major; y[0..kLane) receives the QK.F
/// projection words after the datapath's final rounding and wrap,
/// bit-identical to fixed::dot_datapath_raw per lane.  Returns false,
/// leaving `y` untouched, when no vector kernel may take the tile: a
/// partial tile (lanes < kLane), a plan that is not defer_safe, or the
/// scalar backend.  The caller then scores those rows through
/// fixed::Datapath::dot.
bool score_tile(const DotPlan& plan, const std::int64_t* x, std::int64_t* y,
                std::size_t lanes = kLane);

#if defined(LDAFP_HAVE_AVX2)
/// AVX2 kernel (full defer_safe tiles only; compiled with -mavx2 in its
/// own TU, called only after a runtime CPU check).
void score_tile_avx2(const DotPlan& plan, const std::int64_t* x,
                     std::int64_t* y);
#endif
#if defined(LDAFP_HAVE_NEON)
/// NEON kernel (full defer_safe tiles only).
void score_tile_neon(const DotPlan& plan, const std::int64_t* x,
                     std::int64_t* y);
#endif

}  // namespace ldafp::fixed::simd
