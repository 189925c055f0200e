#include "opt/barrier_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/ops.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::opt {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(BarrierSolverTest, UnconstrainedMinimumInsideBox) {
  // min x² + y² over [-1, 1]²: optimum at the origin, value 0.
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-1.0, 1.0}));
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-5);
  EXPECT_LE(r.lower_bound, r.objective + 1e-12);
  EXPECT_NEAR(r.x[0], 0.0, 1e-3);
}

TEST(BarrierSolverTest, BoxActiveAtOptimum) {
  // min (x-3)² ≡ min x² - 6x + 9 over [-1, 1]: optimum at x = 1.
  // Encode via objective xᵀQx with shifted box: minimize x² over [2, 4]
  // -> optimum x = 2, value 4.
  ConvexProblem p(Matrix::identity(1));
  p.set_box(Box(1, Interval{2.0, 4.0}));
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-3);
  EXPECT_NEAR(r.objective, 4.0, 1e-2);
  EXPECT_LE(r.lower_bound, r.objective);
  EXPECT_GE(r.lower_bound, 3.9);  // certificate is tight
}

TEST(BarrierSolverTest, LinearConstraintActive) {
  // min x² + y² s.t. x + y >= 1 (i.e. -x - y <= -1), box [-5, 5]².
  // Optimum (0.5, 0.5), value 0.5.
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-5.0, 5.0}));
  p.add_linear({Vector{-1.0, -1.0}, -1.0});
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.5, 1e-3);
  EXPECT_NEAR(r.x[0], 0.5, 1e-2);
  EXPECT_NEAR(r.x[1], 0.5, 1e-2);
}

TEST(BarrierSolverTest, SocConstraintActive) {
  // min (x-2)² via objective x² over box [0,5] with SOC cutting at
  // sqrt(x² + eps) <= 1.5 (so |x| <= ~1.5) and a linear pull x >= 1
  // making the optimum sit on the box/linear boundary x = 1... simpler:
  // min x² s.t. sqrt(x²+eps)*1 + (-x) <= 0.4 -> for x >= 0 this is
  // always ~0 <= 0.4 (slack); for x < 0 it is -2x <= 0.4 -> x >= -0.2.
  ConvexProblem p(Matrix::identity(1));
  p.set_box(Box(1, Interval{-3.0, -0.0}));
  SocConstraint soc;
  soc.beta = 1.0;
  soc.sigma = Matrix::identity(1);
  soc.c = Vector{-1.0};
  soc.d = 0.4;
  p.add_soc(soc);
  // Objective pushes toward 0 but we shift the box to force tension:
  // minimize x² over x in [-3, 0] subject to x >= -0.2: optimum ~0.
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_GE(r.x[0], -0.2 - 1e-6);
}

TEST(BarrierSolverTest, QuadraticWithCrossTerms) {
  // min wᵀQw with Q = [[2,1],[1,2]] s.t. w1 + w2 = pushed up by linear
  // constraint -(w1+w2) <= -2 (w1 + w2 >= 2).  By symmetry optimum at
  // (1,1), value 6.
  ConvexProblem p(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  p.set_box(Box(2, Interval{-10.0, 10.0}));
  p.add_linear({Vector{-1.0, -1.0}, -2.0});
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-2);
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
}

TEST(BarrierSolverTest, DetectsInfeasibility) {
  {
    // x <= -3 conflicts with box [0, 1].
    ConvexProblem p(Matrix::identity(1));
    p.set_box(Box(1, Interval{0.0, 1.0}));
    p.add_linear({Vector{1.0}, -3.0});
    const BarrierResult r = BarrierSolver().solve(p);
    EXPECT_EQ(r.status, SolveStatus::kInfeasible);
    EXPECT_TRUE(std::isinf(r.lower_bound));
  }
  {
    // ‖w‖ <= 0.5 conflicts with box [2, 3]²: phase I's Newton steps run
    // through the cone margin towards the least violation 2√2 − 0.5 > 0.
    ConvexProblem p(Matrix::identity(2));
    p.set_box(Box(2, Interval{2.0, 3.0}));
    SocConstraint soc;
    soc.beta = 1.0;
    soc.sigma = Matrix::identity(2);
    soc.c = Vector{0.0, 0.0};
    soc.d = 0.5;
    p.add_soc(soc);
    const BarrierResult r = BarrierSolver().solve(p);
    EXPECT_EQ(r.status, SolveStatus::kInfeasible);
    EXPECT_TRUE(std::isinf(r.lower_bound));
    EXPECT_GT(r.newton_iterations, 1);
  }
}

TEST(BarrierSolverTest, FindStrictlyFeasiblePoint) {
  // The box center violates x <= -0.5, so phase I has to step to a
  // strictly feasible point before phase II can start.
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-1.0, 1.0}));
  p.add_linear({Vector{1.0, 0.0}, -0.5});  // x <= -0.5
  ASSERT_GT(p.max_residual(Vector{0.0, 0.0}), 0.0);
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_FALSE(r.phase1_skipped);
  EXPECT_LT(p.max_residual(r.x), 0.0);
  EXPECT_NEAR(r.objective, 0.25, 1e-3);  // optimum at (-0.5, 0)
}

TEST(BarrierSolverTest, WarmStartSkipsPhaseOne) {
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-1.0, 1.0}));
  const BarrierResult r =
      BarrierSolver().solve(p, Vector{0.5, 0.5});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_TRUE(r.phase1_skipped);
  EXPECT_NEAR(r.objective, 0.0, 1e-5);
}

TEST(BarrierSolverTest, InfeasibleWarmStartFallsBackToPhaseOne) {
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-1.0, 1.0}));
  // Outside the box: solver must run phase I and still converge.
  const BarrierResult r = BarrierSolver().solve(p, Vector{4.0, 4.0});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_FALSE(r.phase1_skipped);
  EXPECT_NEAR(r.objective, 0.0, 1e-5);
}

TEST(BarrierSolverTest, WarmStartValidation) {
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-1.0, 1.0}));
  const BarrierSolver solver;
  EXPECT_THROW(solver.solve(p, Vector{0.5}), ldafp::InvalidArgumentError);
  EXPECT_THROW(solver.solve(p, Vector{0.5, 0.5, 0.5}),
               ldafp::InvalidArgumentError);
  const double nan = std::nan("");
  EXPECT_THROW(solver.solve(p, Vector{nan, 0.0}),
               ldafp::InvalidArgumentError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solver.solve(p, Vector{0.0, inf}),
               ldafp::InvalidArgumentError);
}

TEST(BarrierSolverTest, WorkspaceReuseIsBitwiseTransparent) {
  // Solving with a caller-owned workspace — including one dirtied by
  // solves of a *different* shape — must be bit-identical to solving
  // with fresh scratch memory every time.
  ConvexProblem p(Matrix{{2.0, 0.5}, {0.5, 1.0}});
  p.set_box(Box(2, Interval{-2.0, 2.0}));
  p.add_linear({Vector{-1.0, -1.0}, -0.5});

  ConvexProblem other(Matrix::identity(3));
  other.set_box(Box(3, Interval{-1.0, 1.0}));

  const BarrierSolver solver;
  const BarrierResult fresh = solver.solve(p);

  SolverWorkspace ws;
  solver.solve(other, std::nullopt, &ws);  // dirty the workspace
  const BarrierResult reused = solver.solve(p, std::nullopt, &ws);

  ASSERT_EQ(reused.status, fresh.status);
  ASSERT_EQ(reused.x.size(), fresh.x.size());
  for (std::size_t i = 0; i < fresh.x.size(); ++i) {
    EXPECT_EQ(reused.x[i], fresh.x[i]) << "i=" << i;
  }
  EXPECT_EQ(reused.objective, fresh.objective);
  EXPECT_EQ(reused.lower_bound, fresh.lower_bound);
  EXPECT_EQ(reused.newton_iterations, fresh.newton_iterations);
  EXPECT_EQ(reused.factorizations, fresh.factorizations);
}

/// A small relaxation-shaped problem: quadratic objective, a box, one
/// linear row and two SOC cones whose Σ, c and d move with `shift`, so
/// two shifts give two different problems of the same shape.  With the
/// default `cap`, the box center is strictly feasible by more than 1 for
/// every constraint, so a cold solve's phase I returns before evaluating
/// any cone and the first phase-II Hessian assembly is the first to
/// evaluate them.  A `cap` of 1 makes the center violate the first cone
/// by about 2.5, so phase I has to step through that cone's margin
/// towards the box's low corner.
ConvexProblem cone_problem(double shift, double cap = 6.0) {
  ConvexProblem p(Matrix{{2.0, 0.5 + shift}, {0.5 + shift, 1.0}});
  p.set_box(Box(2, Interval{0.2, 4.2}));
  p.add_linear({Vector{-1.0, -1.0}, -0.5 - shift});
  SocConstraint a;
  a.beta = 1.0 + shift;
  a.sigma = Matrix{{1.0, 0.2}, {0.2, 0.5}};
  a.c = Vector{0.3, -0.1};
  a.d = cap;
  p.add_soc(a);
  SocConstraint b;
  b.beta = 0.8;
  b.sigma = Matrix{{0.6, -0.1 + shift}, {-0.1 + shift, 0.9}};
  b.c = Vector{-0.2, 0.4};
  b.d = 5.0 + shift;
  p.add_soc(b);
  return p;
}

void expect_bitwise_equal(const BarrierResult& got, const BarrierResult& want,
                          const char* label) {
  ASSERT_EQ(got.status, want.status) << label;
  ASSERT_EQ(got.x.size(), want.x.size()) << label;
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    EXPECT_EQ(got.x[i], want.x[i]) << label << " i=" << i;
  }
  EXPECT_EQ(got.objective, want.objective) << label;
  EXPECT_EQ(got.lower_bound, want.lower_bound) << label;
  EXPECT_EQ(got.newton_iterations, want.newton_iterations) << label;
  EXPECT_EQ(got.factorizations, want.factorizations) << label;
  EXPECT_EQ(got.line_search_trials, want.line_search_trials) << label;
  EXPECT_EQ(got.phase1_skipped, want.phase1_skipped) << label;
}

TEST(BarrierSolverTest, StaleConeCacheIsNeverTrustedAcrossSolves) {
  // The workspace carries each Σw (and Qw) from step to step, moved by
  // one axpy per accepted step, in both phases.  A workspace left stale
  // by a different problem of the same shape has every buffer sized
  // right, so a solver that trusted those vectors at entry would use
  // them silently.  Cold solves (phase I, then t from 1) and warm ones
  // (which start from the warm-start check's evaluations) must both
  // match fresh scratch memory bit for bit, through several centering
  // stages, where the vectors are kept and the cached barrier value is
  // dropped.  The second case's box center violates a cone, so its cold
  // solves run phase I through the cones.
  const double m = static_cast<double>(cone_problem(0.0).constraint_count());
  for (const double cap : {6.0, 1.0}) {
    SCOPED_TRACE(cap);
    const ConvexProblem cones = cone_problem(0.0, cap);
    const ConvexProblem stale = cone_problem(0.3, cap);
    const bool center_violates = cones.max_residual(Vector{2.2, 2.2}) > 0.0;
    EXPECT_EQ(center_violates, cap < 6.0);
    const BarrierSolver solver;

    const BarrierResult cold = solver.solve(cones);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    ASSERT_FALSE(cold.phase1_skipped);
    EXPECT_LT(cones.max_residual(cold.x), 0.0);
    // Three or more centering stages.
    EXPECT_LE(cold.duality_gap,
              m / (barrier::kInitialT * barrier::kMu * barrier::kMu));
    const std::optional<Vector> seed(cold.x);
    const BarrierResult warm = solver.solve(cones, seed);
    ASSERT_TRUE(warm.phase1_skipped);
    // Two or more centering stages.
    EXPECT_LE(warm.duality_gap, m / (barrier::kWarmInitialT * barrier::kMu));

    for (const bool warm_start : {false, true}) {
      SolverWorkspace ws;
      solver.solve(stale, std::nullopt, &ws);  // leave the cones stale
      const BarrierResult got =
          solver.solve(cones, warm_start ? seed : std::nullopt, &ws);
      expect_bitwise_equal(got, warm_start ? warm : cold,
                           warm_start ? "warm" : "cold");
      // And once more on the now-warm workspace of the same problem.
      const BarrierResult again =
          solver.solve(cones, warm_start ? seed : std::nullopt, &ws);
      expect_bitwise_equal(again, warm_start ? warm : cold,
                           warm_start ? "warm again" : "cold again");
    }
  }
}

TEST(BarrierSolverTest, CountersArePopulated) {
  ConvexProblem p(Matrix::identity(2));
  p.set_box(Box(2, Interval{-1.0, 1.0}));
  const BarrierResult r = BarrierSolver().solve(p);
  EXPECT_GT(r.newton_iterations, 0);
  EXPECT_GT(r.factorizations, 0);
  EXPECT_FALSE(r.phase1_skipped);
}

TEST(BarrierSolverTest, ZeroWidthBoxDimensionHandled) {
  // A pinned variable (lo == hi) must not break the barrier (the solver
  // inflates it internally).
  ConvexProblem p(Matrix::identity(2));
  Box box(2, Interval{-1.0, 1.0});
  box[1] = Interval{0.5, 0.5};
  p.set_box(box);
  const BarrierResult r = BarrierSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[1], 0.5, 1e-6);
  EXPECT_NEAR(r.objective, 0.25, 1e-3);
}

TEST(BarrierSolverTest, RequiresBox) {
  ConvexProblem p(Matrix::identity(1));
  EXPECT_THROW(BarrierSolver().solve(p), ldafp::InvalidArgumentError);
}

TEST(BarrierSolverTest, LowerBoundNeverExceedsTrueOptimum) {
  // Family of box QPs with known optimum: min x² over [a, a+1], a > 0
  // -> optimum a².
  for (const double a : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    ConvexProblem p(Matrix::identity(1));
    p.set_box(Box(1, Interval{a, a + 1.0}));
    const BarrierResult r = BarrierSolver().solve(p);
    EXPECT_LE(r.lower_bound, a * a + 1e-9) << "a=" << a;
    EXPECT_GE(r.lower_bound, a * a - 0.05 * (1.0 + a * a)) << "a=" << a;
  }
}

// --- The directional line search (DESIGN.md §10) ---------------------------

/// γ_k = k·u / (1 − k·u), the standard bound on the relative rounding
/// error of k chained floating-point operations (u = 2⁻⁵³).
double gamma(double k) {
  const double u = std::ldexp(1.0, -53);
  return k * u / (1.0 - k * u);
}

/// |x|ᵀ|A||y|.
double abs_form(const Matrix& a, const Vector& x, const Vector& y) {
  double s = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      s += std::fabs(x[r]) * std::fabs(a(r, c)) * std::fabs(y[c]);
    }
  }
  return s;
}

Vector random_vector(std::size_t n, double lo, double hi, support::Rng& rng) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(lo, hi);
  return v;
}

/// An Eq. 25-shaped problem: objective Q, box [-1, 1]ⁿ, the two rows
/// l ≤ dᵀw ≤ u (which exclude w = 0, so a cold solve runs phase I) and
/// four cones β√(wᵀΣw + ε) ∓ μᵀw ≤ D over two distinct Σ, two per Σ.
ConvexProblem lda_shaped_problem(std::size_t n, support::Rng& rng) {
  ConvexProblem p(linalg::random_spd(n, 0.5, 4.0, rng));
  p.set_box(Box(n, Interval{-1.0, 1.0}));
  const Vector d = random_vector(n, -1.0, 1.0, rng);
  double d1 = 0.0;
  for (const double v : d) d1 += std::fabs(v);
  p.add_linear({d, 0.3 * d1});
  Vector neg = d;
  neg *= -1.0;
  p.add_linear({neg, -0.05 * d1});
  for (int cls = 0; cls < 2; ++cls) {
    const Matrix sigma = linalg::random_spd(n, 0.2, 2.0, rng);
    const Vector mu = random_vector(n, -0.5, 0.5, rng);
    double mu1 = 0.0;
    for (const double v : mu) mu1 += std::fabs(v);
    for (const double sign : {-1.0, 1.0}) {
      SocConstraint soc;
      soc.beta = 1.0;
      soc.sigma = sigma;
      soc.c = mu;
      soc.c *= sign;
      soc.d = 2.0 + 0.1 * mu1;
      p.add_soc(soc);
    }
  }
  return p;
}

TEST(BarrierSolverTest, DirectionalExpansionMatchesFreshEvaluation) {
  // Every backtracking trial reads the objective and the cone residuals
  // at w + αd from terms formed once per step.  Against a fresh O(n²)
  // evaluation at the rounded point, the difference must stay within
  // the dot-product error bound of both sides: 2γ_{2n+4} times
  // (|w|+α|d|)ᵀ|A|(|w|+α|d|) for a form, and for a residual its
  // propagation through the root plus the linear part's own bound.
  support::Rng rng(181);
  const double u = std::ldexp(1.0, -53);
  for (const std::size_t n : {3u, 12u, 43u}) {
    SCOPED_TRACE(n);
    const ConvexProblem p = lda_shaped_problem(n, rng);
    const ProblemStructure& st = p.structure();
    ASSERT_EQ(st.sigma_count(), 2u);
    const Vector w = random_vector(n, -1.0, 1.0, rng);
    const Vector d = random_vector(n, -2.0, 2.0, rng);

    DirectionalForm q;
    q.aw = Vector(n);
    q.ad = Vector(n);
    std::vector<DirectionalForm> sigmas(2, q);
    q.load(p.objective_matrix(), w);
    q.set_direction(p.objective_matrix(), d);
    for (std::size_t k = 0; k < 2; ++k) {
      sigmas[k].load(st.sigma(k), w);
      sigmas[k].set_direction(st.sigma(k), d);
    }

    for (int e = 0; e <= 40; ++e) {
      const double alpha = std::ldexp(1.0, -e);
      Vector x = w;
      x.axpy(alpha, d);
      Vector span(n);  // |w| + α|d|
      for (std::size_t i = 0; i < n; ++i) {
        span[i] = std::fabs(w[i]) + alpha * std::fabs(d[i]);
      }
      const double form_tol = 2.0 * gamma(2.0 * n + 4.0);

      const double obj_tol =
          form_tol * abs_form(p.objective_matrix(), span, span);
      EXPECT_NEAR(q.at(alpha), p.objective(x), obj_tol) << "alpha=2^-" << e;

      for (std::size_t j = 0; j < p.soc().size(); ++j) {
        const SocConstraint& soc = p.soc()[j];
        const DirectionalForm& f = sigmas[st.sigma_slot(j)];
        const double quad_tol = form_tol * abs_form(soc.sigma, span, span);
        const double root = std::sqrt(std::max(f.at(alpha), 0.0) + soc.eps);
        const double cx =
            linalg::dot(soc.c, w) + alpha * linalg::dot(soc.c, d);
        const double expanded = soc.beta * root + cx - soc.d;
        const double fresh = p.soc_residual(j, x);
        const double fresh_root =
            std::sqrt(std::max(linalg::quadratic_form(soc.sigma, x), 0.0) +
                      soc.eps);
        double c_span = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          c_span += std::fabs(soc.c[i]) * span[i];
        }
        const double root_tol =
            (quad_tol + 2.0 * u * (root * root)) / (root + fresh_root) +
            2.0 * u * root;
        const double tol = soc.beta * root_tol +
                           2.0 * gamma(n + 3.0) * c_span +
                           4.0 * u * (soc.beta * root + std::fabs(cx) +
                                      std::fabs(soc.d));
        EXPECT_NEAR(expanded, fresh, tol) << "cone " << j << " alpha=2^-" << e;
      }
    }
  }
}

TEST(BarrierSolverTest, AxpyUpdatedCachesMatchFreshMatvecs) {
  // After a solve, each cached A·w (Q's and each distinct Σ's) has been
  // advanced by one axpy per accepted step since it was last formed.
  // Every step moves w inside the box, so |αd| ≤ 2b with b_i the box's
  // largest |bound|, and the cache may drift from a fresh matvec at the
  // final w by at most γ_{2K(n+2)+2n}·(|A|b)_i after K steps.
  support::Rng rng(182);
  for (const std::size_t n : {3u, 12u, 43u}) {
    SCOPED_TRACE(n);
    const ConvexProblem p = lda_shaped_problem(n, rng);
    const ProblemStructure& st = p.structure();
    const BarrierSolver solver;
    SolverWorkspace ws;
    const BarrierResult cold = solver.solve(p, std::nullopt, &ws);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    ASSERT_FALSE(cold.phase1_skipped);
    for (const bool warm : {false, true}) {
      SCOPED_TRACE(warm);
      const BarrierResult r =
          warm ? solver.solve(p, cold.x, &ws) : solver.solve(p, std::nullopt,
                                                             &ws);
      ASSERT_EQ(r.status, SolveStatus::kOptimal);
      EXPECT_EQ(r.phase1_skipped, warm);
      const double steps = r.newton_iterations;
      const double tol = gamma(2.0 * steps * (n + 2.0) + 2.0 * n);
      for (std::size_t k = 0; k <= st.sigma_count(); ++k) {
        const Matrix& a = k == 0 ? p.objective_matrix() : st.sigma(k - 1);
        const Vector fresh = a * ws.w;
        for (std::size_t i = 0; i < n; ++i) {
          double bound = 0.0;
          for (std::size_t c = 0; c < n; ++c) bound += std::fabs(a(i, c));
          EXPECT_NEAR(ws.forms[k].aw[i], fresh[i], tol * bound)
              << "form " << k << " i=" << i;
        }
      }
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ws.w[i], r.x[i]);
    }
  }
}

}  // namespace
}  // namespace ldafp::opt
