// Zero-steady-state-allocation contract of the workspace-backed barrier
// solver (DESIGN.md §10), checked with the debug-only linalg allocation
// counter.  Builds without -DLDAFP_COUNT_ALLOCS=ON skip these tests.
#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "linalg/vector.h"
#include "opt/barrier_solver.h"
#include "support/rng.h"

namespace ldafp {
namespace {

using linalg::Matrix;
using linalg::Vector;

#ifndef LDAFP_COUNT_ALLOCS

TEST(AllocCountTest, CountersUnavailable) {
  GTEST_SKIP() << "configure with -DLDAFP_COUNT_ALLOCS=ON to enable";
}

#else

std::uint64_t allocs() {
  return linalg::linalg_alloc_count().load(std::memory_order_relaxed);
}

TEST(AllocCountTest, CopyAssignIntoSizedBufferIsAllocationFree) {
  const Vector src{1.0, 2.0, 3.0};
  Vector dst(3);
  Matrix msrc = Matrix::identity(4);
  Matrix mdst(4, 4);
  const std::uint64_t before = allocs();
  dst = src;           // capacity reuse
  mdst = msrc;         // capacity reuse
  dst *= 2.0;
  EXPECT_EQ(allocs(), before);
}

TEST(AllocCountTest, InPlaceKernelsAreAllocationFree) {
  support::Rng rng(3);
  const Matrix a = linalg::random_spd(6, 0.5, 4.0, rng);
  Vector x(6, 0.25);
  Vector out(6);
  Matrix factor(6, 6);
  const std::uint64_t before = allocs();
  linalg::sym_matvec_quad(a, x, out);
  factor = a;
  ASSERT_TRUE(linalg::cholesky_factor_in_place(factor));
  linalg::cholesky_solve_in_place(factor, out);
  EXPECT_EQ(allocs(), before);
}

// The headline contract: once the workspace has been sized by a first
// solve, further warm-started solves over the same problem shape do not
// touch the heap inside the Newton loop.  The solve() entry still copies
// the final iterate into BarrierResult::x and reads the warm-start
// optional, so the budget below covers those boundary copies only — a
// regression in the loop itself (per-iteration Hessian/gradient/step
// temporaries, hundreds of allocations per solve) trips the bound.
TEST(AllocCountTest, WarmSolveSteadyStateAllocationsAreBounded) {
  opt::ConvexProblem p(Matrix{{2.0, 0.4}, {0.4, 1.0}});
  p.set_box(opt::Box(2, opt::Interval{-1.0, 1.0}));
  p.add_linear({Vector{-1.0, -1.0}, -0.5});  // the box center violates it
  opt::SocConstraint soc;  // ‖w‖ <= 1.2
  soc.beta = 1.0;
  soc.sigma = Matrix::identity(2);
  soc.c = Vector{0.0, 0.0};
  soc.d = 1.2;
  p.add_soc(soc);

  const opt::BarrierSolver solver;
  opt::SolverWorkspace ws;
  // First solve sizes the workspace (allocates).
  const opt::BarrierResult first = solver.solve(p, std::nullopt, &ws);
  ASSERT_EQ(first.status, opt::SolveStatus::kOptimal);

  const std::optional<Vector> warm(first.x);
  const std::uint64_t before = allocs();
  const opt::BarrierResult second = solver.solve(p, warm, &ws);
  const std::uint64_t spent = allocs() - before;
  EXPECT_EQ(second.status, opt::SolveStatus::kOptimal);
  EXPECT_TRUE(second.phase1_skipped);
  // result.x copy + warm-start ingestion; the Newton loop itself adds 0.
  EXPECT_LE(spent, 4u) << "Newton loop allocated on the steady-state path";

  // And again: repeated solves stay flat (no per-solve growth beyond the
  // boundary copies).
  const std::uint64_t before2 = allocs();
  solver.solve(p, warm, &ws);
  EXPECT_LE(allocs() - before2, 4u);

  // A cold solve on the sized workspace: phase I's Newton steps (the box
  // center is infeasible), its residual checks and the hand-off to
  // phase II stay off the heap too.
  const std::uint64_t before3 = allocs();
  const opt::BarrierResult cold = solver.solve(p, std::nullopt, &ws);
  EXPECT_LE(allocs() - before3, 4u) << "phase I allocated on the sized path";
  EXPECT_EQ(cold.status, opt::SolveStatus::kOptimal);
  EXPECT_FALSE(cold.phase1_skipped);
}

#endif  // LDAFP_COUNT_ALLOCS

}  // namespace
}  // namespace ldafp
