// NEON batch-scoring kernel (aarch64).  Same structure as the AVX2
// kernel: one AoSoA tile (kLane = 8 samples) as four 2×int64 vectors,
// exact products via the 32×32→64 multiplier (make_plan enforces
// W <= 31 so raw words fit int32), wraps deferred to the end of the
// reduction — the dispatcher only routes defer_safe plans here.
#include "fixed/simd.h"

#if defined(LDAFP_HAVE_NEON)

#include <arm_neon.h>

namespace ldafp::fixed::simd {

namespace {

/// Arithmetic right shift of 2×int64 by n in [1, 63].
inline int64x2_t srai64(int64x2_t v, int n) {
  return vshlq_s64(v, vdupq_n_s64(-n));
}

/// FixedFormat::wrap_raw on 2 lanes: keep the low `w` bits, sign-extended.
inline int64x2_t wrap64(int64x2_t v, int w) {
  const int shift = 64 - w;  // w <= 62, so shift >= 2
  return srai64(vshlq_s64(v, vdupq_n_s64(shift)), shift);
}

/// Exact product of two int32-range values held in 64-bit lanes.
inline int64x2_t mul_words(int64x2_t a, int64x2_t b) {
  return vmull_s32(vmovn_s64(a), vmovn_s64(b));
}

/// Subtracts an all-ones/all-zeros mask, i.e. adds 1 on set lanes.
inline int64x2_t bump_where(int64x2_t q, uint64x2_t mask) {
  return vsubq_s64(q, vreinterpretq_s64_u64(mask));
}

/// narrow_raw on 2 lanes: drop f low-order bits with rounding.
inline int64x2_t narrow_round(int64x2_t v, int f, RoundingMode mode) {
  if (f == 0) return v;
  const int64x2_t q = srai64(v, f);  // floor(v / 2^f)
  if (mode == RoundingMode::kFloor) return q;
  const int64x2_t zero = vdupq_n_s64(0);
  const int64x2_t rem =
      vandq_s64(v, vdupq_n_s64((std::int64_t{1} << f) - 1));  // in [0, 2^f)
  switch (mode) {
    case RoundingMode::kTowardZero: {
      // floor + 1 where v < 0 and a remainder exists.
      const uint64x2_t neg = vcltq_s64(v, zero);
      // NEON has no 64-bit bitwise NOT; complement the r==0 mask via XOR.
      const uint64x2_t has_rem =
          veorq_u64(vceqq_s64(rem, zero), vdupq_n_u64(~std::uint64_t{0}));
      return bump_where(q, vandq_u64(neg, has_rem));
    }
    case RoundingMode::kNearestAway: {
      const int64x2_t half = vdupq_n_s64(std::int64_t{1} << (f - 1));
      const uint64x2_t gt = vcgtq_s64(rem, half);
      const uint64x2_t tie = vceqq_s64(rem, half);
      const uint64x2_t nonneg = vcgeq_s64(v, zero);
      return bump_where(q, vorrq_u64(gt, vandq_u64(tie, nonneg)));
    }
    case RoundingMode::kNearestEven:
    default: {
      const int64x2_t one = vdupq_n_s64(1);
      const int64x2_t half = vdupq_n_s64(std::int64_t{1} << (f - 1));
      const uint64x2_t gt = vcgtq_s64(rem, half);
      const uint64x2_t tie = vceqq_s64(rem, half);
      const uint64x2_t odd = vceqq_s64(vandq_s64(q, one), one);
      return bump_where(q, vorrq_u64(gt, vandq_u64(tie, odd)));
    }
  }
}

}  // namespace

void score_tile_neon(const DotPlan& plan, const std::int64_t* x,
                     std::int64_t* y) {
  const std::int64_t* w = plan.weights;
  int64x2_t acc[4] = {vdupq_n_s64(0), vdupq_n_s64(0), vdupq_n_s64(0),
                      vdupq_n_s64(0)};
  if (plan.acc == AccumulatorMode::kWide) {
    for (std::size_t m = 0; m < plan.dim; ++m) {
      const int64x2_t wv = vdupq_n_s64(w[m]);
      for (int v = 0; v < 4; ++v) {
        const int64x2_t xv = vld1q_s64(x + m * kLane + 2 * v);
        acc[v] = vaddq_s64(acc[v], mul_words(wv, xv));
      }
    }
    for (int v = 0; v < 4; ++v) {
      acc[v] = wrap64(acc[v], plan.wide_word_length);
      acc[v] = narrow_round(acc[v], plan.frac_bits, plan.mode);
    }
  } else {
    for (std::size_t m = 0; m < plan.dim; ++m) {
      const int64x2_t wv = vdupq_n_s64(w[m]);
      for (int v = 0; v < 4; ++v) {
        const int64x2_t xv = vld1q_s64(x + m * kLane + 2 * v);
        acc[v] = vaddq_s64(
            acc[v], narrow_round(mul_words(wv, xv), plan.frac_bits,
                                 plan.mode));
      }
    }
  }
  for (int v = 0; v < 4; ++v) {
    acc[v] = wrap64(acc[v], plan.word_length);
    vst1q_s64(y + 2 * v, acc[v]);
  }
}

}  // namespace ldafp::fixed::simd

#endif  // LDAFP_HAVE_NEON
