#include "fixed/simd.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/error.h"

namespace ldafp::fixed::simd {

namespace {

/// Best compiled backend the running CPU supports.
Backend detect_backend() {
#if defined(LDAFP_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
#if defined(LDAFP_HAVE_NEON)
  return Backend::kNeon;
#endif
  return Backend::kScalar;
}

/// LDAFP_SIMD environment selection, resolved once.  Unknown or
/// unavailable values warn once and fall back to detection so a typo in
/// a deployment environment degrades performance, never correctness.
Backend env_or_detected() {
  const char* env = std::getenv("LDAFP_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 || env[0] == '\0') {
    return detect_backend();
  }
  for (const Backend b :
       {Backend::kScalar, Backend::kAvx2, Backend::kNeon}) {
    if (std::strcmp(env, to_string(b)) == 0) {
      if (backend_available(b)) return b;
      std::fprintf(stderr,
                   "ldafp: LDAFP_SIMD=%s not available on this build/CPU; "
                   "using %s\n",
                   env, to_string(detect_backend()));
      return detect_backend();
    }
  }
  std::fprintf(stderr,
               "ldafp: unknown LDAFP_SIMD=%s (want scalar|avx2|neon|auto); "
               "using %s\n",
               env, to_string(detect_backend()));
  return detect_backend();
}

/// -1 = no override, else static_cast<int>(Backend).
std::atomic<int> g_override{-1};

Backend resolve_backend() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Backend>(forced);
  static const Backend chosen = env_or_detected();
  return chosen;
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
  }
  return "?";
}

bool backend_available(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(LDAFP_HAVE_AVX2)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(LDAFP_HAVE_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Backend active_backend() { return resolve_backend(); }

void set_backend_override(Backend backend) {
  LDAFP_CHECK(backend_available(backend),
              "simd backend not compiled in or not supported by this CPU");
  g_override.store(static_cast<int>(backend), std::memory_order_relaxed);
}

void clear_backend_override() {
  g_override.store(-1, std::memory_order_relaxed);
}

DotPlan make_plan(const std::int64_t* weights, std::size_t dim,
                  const FixedFormat& fmt, RoundingMode mode,
                  AccumulatorMode acc) {
  LDAFP_CHECK(weights != nullptr && dim > 0,
              "dot plan needs at least one weight");
  // Signed-overflow envelope of the raw-integer datapath: a product of
  // two W-bit words needs 2W-1 bits and the per-step wrapped accumulator
  // holds K+2F bits, so W <= 31 and K+2F <= 62 keep every intermediate
  // inside int64.  Larger formats are legal FixedFormats but cannot be
  // scored on this datapath (same bound as dot_datapath_raw).
  LDAFP_CHECK(fmt.word_length() <= 31,
              "scoring datapath limited to word lengths <= 31 bits "
              "(raw products must fit int64)");
  LDAFP_CHECK(fmt.integer_bits() + 2 * fmt.frac_bits() <= 62,
              "scoring datapath requires K + 2F <= 62");
  DotPlan plan;
  plan.weights = weights;
  plan.dim = dim;
  plan.frac_bits = fmt.frac_bits();
  plan.word_length = fmt.word_length();
  plan.wide_word_length = fmt.integer_bits() + 2 * fmt.frac_bits();
  plan.mode = mode;
  plan.acc = acc;
  // Wrap deferral is safe when the unwrapped sum of all dim terms fits
  // int64 with a sign bit to spare.  Magnitude bound per term:
  //   wide:   |w·x| <= 2^(2W-2)             (exact product)
  //   narrow: |round(w·x / 2^F)| <= 2^(2W-2-F) + 1 <= 2^(2W-1-F)
  const int w = plan.word_length;
  const int term_bits = acc == AccumulatorMode::kWide
                            ? 2 * (w - 1)
                            : 2 * (w - 1) - plan.frac_bits + 1;
  const int dim_bits = std::bit_width(dim);
  plan.defer_safe = term_bits + dim_bits <= 62;
  return plan;
}

bool score_tile(const DotPlan& plan, [[maybe_unused]] const std::int64_t* x,
                [[maybe_unused]] std::int64_t* y, std::size_t lanes) {
  // Vector kernels run only full tiles whose wrap sequence is provably
  // deferrable; the caller scores everything else on Datapath::dot.
  if (lanes != kLane || !plan.defer_safe) return false;
  switch (resolve_backend()) {
#if defined(LDAFP_HAVE_AVX2)
    case Backend::kAvx2:
      score_tile_avx2(plan, x, y);
      return true;
#endif
#if defined(LDAFP_HAVE_NEON)
    case Backend::kNeon:
      score_tile_neon(plan, x, y);
      return true;
#endif
    default:
      return false;
  }
}

}  // namespace ldafp::fixed::simd
