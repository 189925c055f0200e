// AVX2 batch-scoring kernel.  Compiled with -mavx2 in its own TU; the
// dispatcher in simd.cpp calls score_tile_avx2 only after a runtime
// __builtin_cpu_supports("avx2") check, so the rest of the binary stays
// baseline-ISA clean.
//
// One AoSoA tile (kLane = 8 samples) is processed as two 4×int64
// vectors.  Raw words fit int32 (make_plan enforces W <= 31), so the
// exact 64-bit product comes from _mm256_mul_epi32 on the low halves.
// Intermediate wraps are deferred to the end of the reduction — the
// dispatcher only routes defer_safe plans here (see simd.h), which is
// what makes the kernel bit-identical to the per-step-wrap scalar
// reference by modular arithmetic, not by accident of the data.
#include "fixed/simd.h"

#if defined(LDAFP_HAVE_AVX2)

#include <immintrin.h>

namespace ldafp::fixed::simd {

namespace {

/// Arithmetic right shift of 4×int64 by n in [1, 63] (AVX2 has no
/// native 64-bit srai; OR the logical shift with the sign fill).
inline __m256i srai64(__m256i v, int n) {
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  return _mm256_or_si256(_mm256_srli_epi64(v, n),
                         _mm256_slli_epi64(sign, 64 - n));
}

/// FixedFormat::wrap_raw on 4 lanes: keep the low `w` bits, sign-extended.
inline __m256i wrap64(__m256i v, int w) {
  const int shift = 64 - w;  // w <= 62, so shift >= 2
  return srai64(_mm256_slli_epi64(v, shift), shift);
}

/// Exact product of two int32-range values held in 64-bit lanes.
inline __m256i mul_words(__m256i a, __m256i b) {
  return _mm256_mul_epi32(a, b);
}

/// narrow_raw on 4 lanes: drop f low-order bits with rounding.
inline __m256i narrow_round(__m256i v, int f, RoundingMode mode) {
  if (f == 0) return v;
  const __m256i q = srai64(v, f);  // floor(v / 2^f)
  if (mode == RoundingMode::kFloor) return q;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i rem = _mm256_and_si256(
      v, _mm256_set1_epi64x((std::int64_t{1} << f) - 1));  // in [0, 2^f)
  __m256i bump;  // lanes are -1 where floor must be incremented
  switch (mode) {
    case RoundingMode::kTowardZero: {
      // floor + 1 where v < 0 and a remainder exists.
      const __m256i neg = _mm256_cmpgt_epi64(zero, v);
      const __m256i rem_zero = _mm256_cmpeq_epi64(rem, zero);
      bump = _mm256_andnot_si256(rem_zero, neg);
      break;
    }
    case RoundingMode::kNearestAway: {
      const __m256i half = _mm256_set1_epi64x(std::int64_t{1} << (f - 1));
      const __m256i gt = _mm256_cmpgt_epi64(rem, half);
      const __m256i tie = _mm256_cmpeq_epi64(rem, half);
      const __m256i nonneg = _mm256_cmpgt_epi64(v, _mm256_set1_epi64x(-1));
      bump = _mm256_or_si256(gt, _mm256_and_si256(tie, nonneg));
      break;
    }
    case RoundingMode::kNearestEven:
    default: {
      const __m256i one = _mm256_set1_epi64x(1);
      const __m256i half = _mm256_set1_epi64x(std::int64_t{1} << (f - 1));
      const __m256i gt = _mm256_cmpgt_epi64(rem, half);
      const __m256i tie = _mm256_cmpeq_epi64(rem, half);
      const __m256i odd = _mm256_cmpeq_epi64(_mm256_and_si256(q, one), one);
      bump = _mm256_or_si256(gt, _mm256_and_si256(tie, odd));
      break;
    }
  }
  return _mm256_sub_epi64(q, bump);  // q - (-1) = q + 1 on bumped lanes
}

}  // namespace

void score_tile_avx2(const DotPlan& plan, const std::int64_t* x,
                     std::int64_t* y) {
  const std::int64_t* w = plan.weights;
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  if (plan.acc == AccumulatorMode::kWide) {
    for (std::size_t m = 0; m < plan.dim; ++m) {
      const __m256i wv = _mm256_set1_epi64x(w[m]);
      const __m256i x0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + m * kLane));
      const __m256i x1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + m * kLane + 4));
      acc0 = _mm256_add_epi64(acc0, mul_words(wv, x0));
      acc1 = _mm256_add_epi64(acc1, mul_words(wv, x1));
    }
    acc0 = wrap64(acc0, plan.wide_word_length);
    acc1 = wrap64(acc1, plan.wide_word_length);
    acc0 = narrow_round(acc0, plan.frac_bits, plan.mode);
    acc1 = narrow_round(acc1, plan.frac_bits, plan.mode);
  } else {
    for (std::size_t m = 0; m < plan.dim; ++m) {
      const __m256i wv = _mm256_set1_epi64x(w[m]);
      const __m256i x0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + m * kLane));
      const __m256i x1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + m * kLane + 4));
      acc0 = _mm256_add_epi64(
          acc0, narrow_round(mul_words(wv, x0), plan.frac_bits, plan.mode));
      acc1 = _mm256_add_epi64(
          acc1, narrow_round(mul_words(wv, x1), plan.frac_bits, plan.mode));
    }
  }
  acc0 = wrap64(acc0, plan.word_length);
  acc1 = wrap64(acc1, plan.word_length);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(y), acc0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + 4), acc1);
}

}  // namespace ldafp::fixed::simd

#endif  // LDAFP_HAVE_AVX2
