#include "opt/barrier_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/error.h"

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
  // Each accepted line-search trial hands its cone evaluations to the
  // next Hessian assembly through the workspace, in both phases.  A
  // workspace left stale by a different problem of the same shape has
  // every buffer sized right, so a solver that trusted those evaluations
  // at entry would use them silently.  Cold solves (phase I, then t from
  // 1) and warm ones (which start from the warm-start check's
  // evaluations) must both match fresh scratch memory bit for bit,
  // through several centering stages, where the cone cache is kept and
  // the cached barrier value is dropped.  The second case's box center
  // violates a cone, so its cold solves run phase I through the cones.
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

}  // namespace
}  // namespace ldafp::opt
