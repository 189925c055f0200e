// Shared-structure node views (DESIGN.md §10): one immutable
// ProblemStructure per branch-and-bound tree, O(m) per-node views that
// carry only the box and the overridable linear right-hand sides.
#include "opt/problem_structure.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/barrier_solver.h"
#include "opt/convex_problem.h"
#include "support/error.h"

namespace ldafp::opt {
namespace {

using linalg::Matrix;
using linalg::Vector;

ConvexProblem make_builder() {
  ConvexProblem builder(Matrix{{2.0, 0.5}, {0.5, 1.0}});
  builder.add_linear({Vector{1.0, 1.0}, 1.0});
  builder.add_linear({Vector{-1.0, 0.0}, 2.0});
  SocConstraint soc;
  soc.beta = 0.5;
  soc.sigma = Matrix::identity(2);
  soc.c = Vector{0.0, -1.0};
  soc.d = 3.0;
  builder.add_soc(soc);
  return builder;
}

TEST(ProblemStructureTest, ViewsShareOneStructure) {
  ConvexProblem builder = make_builder();
  const std::shared_ptr<const ProblemStructure> structure =
      builder.share_structure();

  const ConvexProblem a(structure, Box(2, Interval{-1.0, 1.0}));
  const ConvexProblem b(structure, Box(2, Interval{0.0, 2.0}));
  // Same underlying objects, not copies.
  EXPECT_EQ(&a.structure(), structure.get());
  EXPECT_EQ(&a.structure(), &b.structure());
  EXPECT_EQ(a.objective_matrix().data(), b.objective_matrix().data());
  EXPECT_EQ(a.linear().size(), 2u);
  EXPECT_EQ(a.soc().size(), 1u);
  // Boxes stay per-view.
  EXPECT_EQ(a.box()[0].lo, -1.0);
  EXPECT_EQ(b.box()[0].lo, 0.0);
}

TEST(ProblemStructureTest, SharingFreezesTheStructure) {
  ConvexProblem builder = make_builder();
  builder.share_structure();
  EXPECT_THROW(builder.add_linear({Vector{1.0, 0.0}, 0.0}),
               ldafp::InvalidArgumentError);
  SocConstraint soc;
  soc.beta = 1.0;
  soc.sigma = Matrix::identity(2);
  soc.c = Vector(2);
  EXPECT_THROW(builder.add_soc(soc), ldafp::InvalidArgumentError);
}

TEST(ProblemStructureTest, LinearRhsOverridesArePerView) {
  ConvexProblem builder = make_builder();
  const auto structure = builder.share_structure();

  ConvexProblem view(structure, Box(2, Interval{-5.0, 5.0}));
  EXPECT_DOUBLE_EQ(view.linear_rhs(0), 1.0);  // structure default
  view.set_linear_rhs(0, 0.25);
  EXPECT_DOUBLE_EQ(view.linear_rhs(0), 0.25);
  EXPECT_DOUBLE_EQ(view.linear_rhs(1), 2.0);
  // The structure's stored constraint is untouched and other views see
  // the default.
  EXPECT_DOUBLE_EQ(structure->linear()[0].b, 1.0);
  const ConvexProblem other(structure, Box(2, Interval{-5.0, 5.0}));
  EXPECT_DOUBLE_EQ(other.linear_rhs(0), 1.0);

  // Residuals honor the override: at w = (1, 0), a0ᵀw = 1.
  const Vector w{1.0, 0.0};
  EXPECT_DOUBLE_EQ(view.linear_residual(0, w), 1.0 - 0.25);
  EXPECT_DOUBLE_EQ(other.linear_residual(0, w), 0.0);
}

TEST(ProblemStructureTest, NodeViewSolvesBitwiseEqualToStandaloneBuild) {
  // A node view over shared structure and an independently built
  // standalone problem describe the same optimization problem; the solver
  // must produce bit-identical results on both (the warm-start
  // determinism argument relies on views being transparent).
  ConvexProblem builder = make_builder();
  const auto structure = builder.share_structure();
  ConvexProblem view(structure, Box(2, Interval{-2.0, 2.0}));
  view.set_linear_rhs(0, 0.75);

  ConvexProblem standalone = make_builder();
  standalone.set_box(Box(2, Interval{-2.0, 2.0}));
  standalone.set_linear_rhs(0, 0.75);

  const BarrierSolver solver;
  const BarrierResult a = solver.solve(view);
  const BarrierResult b = solver.solve(standalone);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << "i=" << i;
  }
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
}

TEST(ProblemStructureTest, ValidatesShapes) {
  ProblemStructure s(Matrix::identity(2));
  EXPECT_THROW(s.add_linear({Vector{1.0}, 0.0}),
               ldafp::InvalidArgumentError);
  SocConstraint bad;
  bad.beta = 1.0;
  bad.sigma = Matrix::identity(3);
  bad.c = Vector(3);
  EXPECT_THROW(s.add_soc(bad), ldafp::InvalidArgumentError);
  // Node view box must match the structure dimension.
  ConvexProblem builder(Matrix::identity(2));
  const auto structure = builder.share_structure();
  EXPECT_THROW(ConvexProblem(structure, Box(3, Interval{0.0, 1.0})),
               ldafp::InvalidArgumentError);
}

SocConstraint cone_with(const Matrix& sigma, double d) {
  SocConstraint soc;
  soc.beta = 1.0;
  soc.sigma = sigma;
  soc.c = Vector(sigma.rows());
  soc.d = d;
  return soc;
}

TEST(ProblemStructureTest, BitwiseEqualSigmasAreShared) {
  // LDA-FP adds two cones per class over the class's Σ; the solver forms
  // Σw once per distinct Σ.
  const Matrix sa{{2.0, 0.5}, {0.5, 1.0}};
  const Matrix sb{{1.0, -0.25}, {-0.25, 3.0}};
  ProblemStructure s(Matrix::identity(2));
  s.add_soc(cone_with(sa, 1.0));
  s.add_soc(cone_with(sa, 2.0));
  s.add_soc(cone_with(sb, 1.0));
  s.add_soc(cone_with(Matrix(sb), 2.0));  // a separate, equal copy
  ASSERT_EQ(s.sigma_count(), 2u);
  EXPECT_EQ(s.sigma_slot(0), 0u);
  EXPECT_EQ(s.sigma_slot(1), 0u);
  EXPECT_EQ(s.sigma_slot(2), 1u);
  EXPECT_EQ(s.sigma_slot(3), 1u);
  EXPECT_EQ(s.sigma(0)(0, 1), 0.5);
  EXPECT_EQ(s.sigma(1)(1, 1), 3.0);
}

TEST(ProblemStructureTest, SigmaOneUlpApartIsNotShared) {
  const Matrix sa{{2.0, 0.5}, {0.5, 1.0}};
  Matrix near = sa;
  near(1, 1) = std::nextafter(1.0, 2.0);
  ProblemStructure s(Matrix::identity(2));
  s.add_soc(cone_with(sa, 1.0));
  s.add_soc(cone_with(near, 1.0));
  s.add_soc(cone_with(sa, 2.0));
  ASSERT_EQ(s.sigma_count(), 2u);
  EXPECT_EQ(s.sigma_slot(0), 0u);
  EXPECT_EQ(s.sigma_slot(1), 1u);
  EXPECT_EQ(s.sigma_slot(2), 0u);
}

}  // namespace
}  // namespace ldafp::opt
