#include "core/local_search.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "fixed/grid.h"
#include "linalg/ops.h"
#include "reference_polish.h"
#include "support/rng.h"

namespace ldafp::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

stats::TwoClassModel benign_model() {
  // Well-separated classes with tame statistics so Eq. 18/20 are loose.
  return stats::TwoClassModel{
      stats::GaussianModel(Vector{0.25, 0.0}, 0.01 * Matrix::identity(2)),
      stats::GaussianModel(Vector{-0.25, 0.0}, 0.01 * Matrix::identity(2))};
}

TEST(ExactCostTest, MatchesFisherRatio) {
  const Matrix sw{{2.0, 0.0}, {0.0, 1.0}};
  const Vector diff{1.0, 0.0};
  // w = (1, 1): cost = (2 + 1) / 1² = 3.
  EXPECT_DOUBLE_EQ(exact_cost(Vector{1.0, 1.0}, sw, diff), 3.0);
  EXPECT_TRUE(std::isinf(exact_cost(Vector{0.0, 1.0}, sw, diff)));
}

TEST(LocalSearchTest, RejectsOffGridStart) {
  const auto model = benign_model();
  const Matrix sw = model.within_class_scatter();
  const fixed::FixedFormat fmt(2, 2);
  EXPECT_FALSE(polish(Vector{0.3, 0.0}, sw, model, 2.0, fmt).has_value());
}

TEST(LocalSearchTest, RejectsInfeasibleStart) {
  // Huge class means make almost any non-zero w violate Eq. 18.
  const stats::TwoClassModel model{
      stats::GaussianModel(Vector{100.0}, Matrix{{1.0}}),
      stats::GaussianModel(Vector{-100.0}, Matrix{{1.0}})};
  const Matrix sw = model.within_class_scatter();
  const fixed::FixedFormat fmt(2, 2);
  EXPECT_FALSE(polish(Vector{1.0}, sw, model, 3.0, fmt).has_value());
}

TEST(LocalSearchTest, NeverWorsensCost) {
  const auto model = benign_model();
  const Matrix sw = model.within_class_scatter();
  const Vector diff = model.mean_difference();
  const fixed::FixedFormat fmt(2, 3);
  support::Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    // Random feasible on-grid start with positive t.
    Vector start(2);
    start[0] = fmt.round_to_grid(rng.uniform(0.125, 1.5));
    start[1] = fmt.round_to_grid(rng.uniform(-1.0, 1.0));
    const auto result = polish(start, sw, model, 2.0, fmt);
    ASSERT_TRUE(result.has_value());
    EXPECT_LE(result->cost, exact_cost(start, sw, diff) + 1e-12);
    EXPECT_TRUE(fixed::on_grid(result->weights, fmt));
    EXPECT_TRUE(is_feasible_weight(result->weights, model, 2.0, fmt,
                                   1e-6));
  }
}

TEST(LocalSearchTest, FindsAxisOptimumOnEasyProblem) {
  // Only feature 0 is informative; the best direction is (w0, 0).
  const auto model = benign_model();
  const Matrix sw = model.within_class_scatter();
  const fixed::FixedFormat fmt(2, 3);
  const auto result = polish(Vector{0.25, 0.5}, sw, model, 2.0, fmt);
  ASSERT_TRUE(result.has_value());
  // Cost of (w0, w1) = 0.01(w0² + w1²) / (0.5 w0)²; minimized at w1 = 0.
  EXPECT_DOUBLE_EQ(result->weights[1], 0.0);
}

TEST(LocalSearchTest, SweepBudgetRespected) {
  const auto model = benign_model();
  const Matrix sw = model.within_class_scatter();
  const fixed::FixedFormat fmt(2, 6);
  const auto result = polish(Vector{0.25, 0.5}, sw, model, 2.0, fmt);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->sweeps, 1);
  EXPECT_LE(result->sweeps, kPolishMaxSweeps);
}

// ---------------------------------------------------------------------------
// The screened polish against the pre-screen reference (reference_polish.h).
// ---------------------------------------------------------------------------

/// One seeded polish problem.  `sw` is passed to polish() separately from
/// the model, so the instances can stress the screen with matrices no
/// model would produce.
struct PolishCase {
  Matrix sw;
  stats::TwoClassModel model;
  double beta = 0.0;
  fixed::FixedFormat fmt;
  Vector start;
  LocalSearchOptions options;
  std::string label;
};

/// Symmetric Σ λ_k v_k v_kᵀ with λ spread over `decades` decades below 1
/// (the smallest may be exactly 0 when `singular`).
Matrix spread_spectrum(std::size_t n, double decades, bool singular,
                       support::Rng& rng) {
  Matrix s(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    double lambda = std::pow(10.0, -decades * rng.uniform());
    if (singular && k == 0) lambda = 0.0;
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) s(i, j) += lambda * v[i] * v[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) s(i, j) = s(j, i);
  }
  return s;
}

/// Random grid point inside the per-coordinate Eq. 18 box.
Vector random_box_point(const stats::TwoClassModel& model, double beta,
                        const fixed::FixedFormat& fmt, support::Rng& rng) {
  const std::size_t n = model.class_a.dim();
  Vector w(n);
  for (std::size_t m = 0; m < n; ++m) {
    const opt::Interval iv = feasible_weight_interval(m, model, beta, fmt);
    const double lo = fixed::grid_ceil(iv.lo, fmt);
    const double hi = fixed::grid_floor(iv.hi, fmt);
    const auto steps = static_cast<std::int64_t>((hi - lo) / fmt.resolution());
    w[m] = lo + fmt.resolution() *
                    static_cast<double>(rng.uniform_int(0, steps));
  }
  return w;
}

PolishCase make_case(int trial, support::Rng& rng) {
  PolishCase c{Matrix(1, 1), benign_model(), 0.0, fixed::FixedFormat(2, 4),
               Vector(1), LocalSearchOptions{}, ""};
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 7));
  c.fmt = fixed::FixedFormat(static_cast<int>(rng.uniform_int(1, 3)),
                             static_cast<int>(rng.uniform_int(2, 6)));
  // Dyadic mean differences, so t = dᵀw can be exactly zero on the grid.
  Vector mu_a(n);
  Vector mu_b(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double d = static_cast<double>(rng.uniform_int(-8, 8)) / 8.0;
    const double shift = static_cast<double>(rng.uniform_int(-2, 2)) / 16.0;
    mu_a[m] = shift + 0.5 * d;
    mu_b[m] = shift - 0.5 * d;
  }
  c.model = stats::TwoClassModel{
      stats::GaussianModel(mu_a, linalg::random_spd(n, 1e-3, 0.05, rng)),
      stats::GaussianModel(mu_b, linalg::random_spd(n, 1e-3, 0.05, rng))};
  c.beta = rng.uniform(0.0, 3.0);
  c.options.max_step_pow = 1 + trial % 5;

  switch (trial % 5) {
    case 0: c.sw = c.model.within_class_scatter(); c.label = "model"; break;
    case 1: c.sw = spread_spectrum(n, 12.0, false, rng); c.label = "cond1e12";
      break;
    case 2: c.sw = spread_spectrum(n, 6.0, true, rng); c.label = "singular";
      break;
    case 3: c.sw = 1e-9 * spread_spectrum(n, 3.0, false, rng);
      c.label = "tiny"; break;
    default:  // not exactly symmetric: the screen must stand aside
      c.sw = spread_spectrum(n, 2.0, false, rng);
      c.sw(0, 1) += 1e-3;
      c.label = "asymmetric";
      break;
  }

  const Vector d = c.model.mean_difference();
  Vector w = random_box_point(c.model, c.beta, c.fmt, rng);
  switch ((trial / 5) % 3) {
    case 0: c.label += "/random"; break;
    case 1: {
      // Drive t toward 0 through the coordinate with the largest |d_j|.
      std::size_t j = 0;
      for (std::size_t m = 1; m < n; ++m) {
        if (std::fabs(d[m]) > std::fabs(d[j])) j = m;
      }
      if (d[j] != 0.0) {
        const opt::Interval iv =
            feasible_weight_interval(j, c.model, c.beta, c.fmt);
        const double t_rest = linalg::dot(d, w) - d[j] * w[j];
        const double target = c.fmt.round_to_grid(-t_rest / d[j]);
        w[j] = std::min(std::max(target, fixed::grid_ceil(iv.lo, c.fmt)),
                        fixed::grid_floor(iv.hi, c.fmt));
      }
      c.label += "/t~0";
      break;
    }
    default: {
      // The last feasible grid point along the ray to a box corner: the
      // start sits on the edge of the Eq. 20 projection constraints.
      Vector corner(n);
      for (std::size_t m = 0; m < n; ++m) {
        const opt::Interval iv =
            feasible_weight_interval(m, c.model, c.beta, c.fmt);
        corner[m] = rng.uniform() < 0.5 ? fixed::grid_ceil(iv.lo, c.fmt)
                                        : fixed::grid_floor(iv.hi, c.fmt);
      }
      w = Vector(n);
      for (int k = 1; k <= 64; ++k) {
        Vector probe(n);
        for (std::size_t m = 0; m < n; ++m) {
          probe[m] = c.fmt.round_to_grid(corner[m] * k / 64.0);
        }
        if (!is_feasible_weight(probe, c.model, c.beta, c.fmt, 1e-9)) break;
        w = probe;
      }
      c.label += "/edge";
      break;
    }
  }
  c.start = w;
  c.label += " pow=" + std::to_string(c.options.max_step_pow) +
             " n=" + std::to_string(n) + " " + c.fmt.to_string();
  return c;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PolishEquivalenceTest, ScreenedPolishMatchesReferenceBitwise) {
  support::Rng rng(1606);
  int polished = 0;
  std::uint64_t screened_evals = 0;
  std::uint64_t unavoidable_evals = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const PolishCase c = make_case(trial, rng);
    std::uint64_t beating = 0;
    const auto want = testing::reference_polish(
        c.start, c.sw, c.model, c.beta, c.fmt, c.options, &beating);
    const auto got =
        polish(c.start, c.sw, c.model, c.beta, c.fmt, c.options);
    ASSERT_EQ(got.has_value(), want.has_value()) << c.label;
    if (!want.has_value()) continue;
    ++polished;
    ASSERT_EQ(got->weights.size(), want->weights.size());
    for (std::size_t m = 0; m < want->weights.size(); ++m) {
      ASSERT_EQ(bits(got->weights[m]), bits(want->weights[m]))
          << c.label << " m=" << m;
    }
    ASSERT_EQ(bits(got->cost), bits(want->cost)) << c.label;
    ASSERT_EQ(got->sweeps, want->sweeps) << c.label;
    ASSERT_EQ(got->moves, want->moves) << c.label;
    ASSERT_LE(got->exact_evals, want->exact_evals) << c.label;
    if (c.label.rfind("asymmetric", 0) == 0) {
      EXPECT_EQ(got->exact_evals, want->exact_evals) << c.label;
    } else {
      ASSERT_GE(got->exact_evals, beating) << c.label;
      screened_evals += got->exact_evals;
      unavoidable_evals += beating;
    }
  }
  // Most seeded starts must be feasible, or the sweep proves little.
  EXPECT_GE(polished, 400);
  // The screen has to do its job on the symmetric instances: beyond the
  // moves that beat the running best (which must be costed), it lets
  // through almost nothing, even at condition number 1e12.
  EXPECT_LE(screened_evals - unavoidable_evals, unavoidable_evals / 100)
      << screened_evals << " costed, " << unavoidable_evals
      << " unavoidable";
}

TEST(PolishEquivalenceTest, ZeroTStartCostsEveryCandidateExactly) {
  // t = 0 gives an infinite start cost, which no screen can beat: every
  // in-range move is costed, exactly as the reference does.
  const auto model = benign_model();  // d = (0.5, 0)
  const Matrix sw = model.within_class_scatter();
  const fixed::FixedFormat fmt(2, 3);
  const Vector start{0.0, 0.5};
  const auto want = testing::reference_polish(start, sw, model, 2.0, fmt);
  const auto got = polish(start, sw, model, 2.0, fmt);
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(std::isfinite(want->cost));
  EXPECT_EQ(bits(got->cost), bits(want->cost));
  EXPECT_EQ(bits(got->weights[0]), bits(want->weights[0]));
  EXPECT_EQ(bits(got->weights[1]), bits(want->weights[1]));
  EXPECT_EQ(got->moves, want->moves);
  EXPECT_EQ(got->sweeps, want->sweeps);
}

#ifdef LDAFP_COUNT_ALLOCS

// A polish allocates a fixed handful of vectors (the result, d, the
// screen's S_W·w) and nothing per candidate: a run that tries thousands
// of moves allocates exactly what a one-move run does.
TEST(PolishAllocCountTest, SteadyStatePolishAllocatesNothingPerCandidate) {
  support::Rng rng(77);
  const std::size_t n = 8;
  Vector mu(n, 0.0);
  mu[0] = 0.25;
  const stats::TwoClassModel model{
      stats::GaussianModel(mu, linalg::random_spd(n, 0.005, 0.02, rng)),
      stats::GaussianModel(-1.0 * mu,
                           linalg::random_spd(n, 0.005, 0.02, rng))};
  const Matrix sw = model.within_class_scatter();
  const fixed::FixedFormat fmt(2, 6);
  Vector start(n, 0.0);
  start[0] = 0.5;
  for (std::size_t m = 1; m < n; ++m) start[m] = (m % 2 == 0) ? 0.25 : -0.25;

  LocalSearchOptions small;
  small.max_step_pow = 1;
  LocalSearchOptions large;
  large.max_step_pow = 5;
  const auto candidates =
      testing::reference_polish(start, sw, model, 2.0, fmt, large);
  ASSERT_TRUE(candidates.has_value());
  ASSERT_GT(candidates->exact_evals, 100u);

  const auto count = [&](const LocalSearchOptions& options) {
    const std::uint64_t before =
        linalg::linalg_alloc_count().load(std::memory_order_relaxed);
    const auto result = polish(start, sw, model, 2.0, fmt, options);
    EXPECT_TRUE(result.has_value());
    return linalg::linalg_alloc_count().load(std::memory_order_relaxed) -
           before;
  };
  const std::uint64_t one_step = count(small);
  const std::uint64_t full = count(large);
  EXPECT_EQ(full, one_step);
  EXPECT_LE(full, 3u);
}

#else

TEST(PolishAllocCountTest, CountersUnavailable) {
  GTEST_SKIP() << "configure with -DLDAFP_COUNT_ALLOCS=ON to enable";
}

#endif  // LDAFP_COUNT_ALLOCS

}  // namespace
}  // namespace ldafp::core
