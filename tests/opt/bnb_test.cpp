#include "opt/bnb.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/error.h"

namespace ldafp::opt {
namespace {

using linalg::Vector;

/// Toy discrete problem: minimize f(x) = Σ (x_i - target_i)² over integer
/// points in the box.  Lower bound per box is exact continuous
/// minimization (clamping target into the box); terminal boxes (width
/// <= 2 per dim) are enumerated.
class IntegerQuadratic : public BnbProblem {
 public:
  explicit IntegerQuadratic(Vector target) : target_(std::move(target)) {}

  int bound_calls = 0;

  double value(const Vector& x) const {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target_[i];
      s += d * d;
    }
    return s;
  }

  NodeBounds bound(const Box& box, const BoundContext& /*ctx*/) override {
    ++bound_calls;
    NodeBounds out;
    Vector clamped(target_.size());
    Vector rounded(target_.size());
    double lb = 0.0;
    for (std::size_t i = 0; i < target_.size(); ++i) {
      clamped[i] = std::min(std::max(target_[i], box[i].lo), box[i].hi);
      const double d = clamped[i] - target_[i];
      lb += d * d;
      rounded[i] = std::round(clamped[i]);
      rounded[i] = std::min(std::max(rounded[i], std::ceil(box[i].lo)),
                            std::floor(box[i].hi));
    }
    out.lower = lb;
    out.candidate = rounded;
    out.candidate_value = value(rounded);
    return out;
  }

  bool is_terminal(const Box& box) const override {
    for (std::size_t i = 0; i < box.size(); ++i) {
      if (box[i].width() > 2.0) return false;
    }
    return true;
  }

  NodeBounds solve_terminal(const Box& box) override {
    NodeBounds out;
    // Enumerate integer points (boxes here are at most width 2 per dim).
    std::vector<std::vector<double>> axes(box.size());
    for (std::size_t i = 0; i < box.size(); ++i) {
      for (double v = std::ceil(box[i].lo); v <= box[i].hi; v += 1.0) {
        axes[i].push_back(v);
      }
      if (axes[i].empty()) return out;
    }
    std::vector<std::size_t> idx(box.size(), 0);
    Vector x(box.size());
    for (std::size_t i = 0; i < box.size(); ++i) x[i] = axes[i][0];
    while (true) {
      const double v = value(x);
      if (v < out.candidate_value) {
        out.candidate = x;
        out.candidate_value = v;
        out.lower = v;
      }
      std::size_t i = 0;
      while (i < box.size()) {
        if (++idx[i] < axes[i].size()) {
          x[i] = axes[i][idx[i]];
          break;
        }
        idx[i] = 0;
        x[i] = axes[i][0];
        ++i;
      }
      if (i == box.size()) break;
    }
    return out;
  }

  std::pair<Box, Box> branch(const Box& box) override {
    const std::size_t dim = box.widest_dimension();
    return box.split(dim, std::floor(box[dim].mid()) + 0.5);
  }

 private:
  Vector target_;
};

TEST(BnbTest, FindsNearestIntegerPoint) {
  IntegerQuadratic problem(Vector{1.3, -2.7, 0.5});
  const Box root(3, Interval{-10.0, 10.0});
  const BnbResult r = BnbSolver().run(problem, root);
  EXPECT_EQ(r.status, BnbStatus::kOptimal);
  ASSERT_TRUE(r.best_point.has_value());
  EXPECT_DOUBLE_EQ((*r.best_point)[0], 1.0);
  EXPECT_DOUBLE_EQ((*r.best_point)[1], -3.0);
  // 0.5 ties between 0 and 1; both give the same value 0.25.
  const double x2 = (*r.best_point)[2];
  EXPECT_TRUE(x2 == 0.0 || x2 == 1.0);
  EXPECT_NEAR(r.best_value, 0.09 + 0.09 + 0.25, 1e-12);
  EXPECT_LE(r.gap(), 1e-6);
}

TEST(BnbTest, OptimumOnBoxBoundary) {
  IntegerQuadratic problem(Vector{20.0});
  const Box root(1, Interval{-5.0, 5.0});
  const BnbResult r = BnbSolver().run(problem, root);
  EXPECT_EQ(r.status, BnbStatus::kOptimal);
  EXPECT_DOUBLE_EQ((*r.best_point)[0], 5.0);
}

TEST(BnbTest, InitialIncumbentPrunesSearch) {
  IntegerQuadratic cold(Vector{1.3, -2.7});
  const Box root(2, Interval{-100.0, 100.0});
  const BnbResult cold_result = BnbSolver().run(cold, root);

  IntegerQuadratic warm(Vector{1.3, -2.7});
  const auto incumbent =
      std::make_pair(Vector{1.0, -3.0}, warm.value(Vector{1.0, -3.0}));
  const BnbResult warm_result = BnbSolver().run(warm, root, incumbent);

  EXPECT_EQ(warm_result.best_value, cold_result.best_value);
  EXPECT_LE(warm.bound_calls, cold.bound_calls);
}

TEST(BnbTest, NodeBudgetProducesAnytimeResult) {
  IntegerQuadratic problem(Vector{1.3, -2.7, 0.5, 3.1, -1.1});
  BnbOptions options;
  options.max_nodes = 3;
  const Box root(5, Interval{-50.0, 50.0});
  const BnbResult r = BnbSolver(options).run(problem, root);
  EXPECT_EQ(r.status, BnbStatus::kNodeLimit);
  EXPECT_TRUE(r.best_point.has_value());  // rounding heuristic found one
  EXPECT_GE(r.gap(), 0.0);
}

TEST(BnbTest, TimeBudgetRespected) {
  IntegerQuadratic problem(Vector{0.4, 0.4});
  BnbOptions options;
  options.max_seconds = 0.0;  // expire immediately after the root
  const Box root(2, Interval{-1000.0, 1000.0});
  const BnbResult r = BnbSolver(options).run(problem, root);
  EXPECT_EQ(r.status, BnbStatus::kTimeLimit);
}

TEST(BnbTest, GapToleranceStopsEarly) {
  const Box root(1, Interval{-50.0, 50.0});
  IntegerQuadratic exact_problem(Vector{1.3});
  const BnbResult exact = BnbSolver().run(exact_problem, root);
  IntegerQuadratic problem(Vector{1.3});
  BnbOptions options;
  options.rel_gap = 2.0;  // any incumbent is acceptable
  const BnbResult r = BnbSolver(options).run(problem, root);
  EXPECT_EQ(r.status, BnbStatus::kOptimal);
  EXPECT_LE(r.best_value - r.lower_bound, 2.0 * r.best_value + 1e-9);
  EXPECT_LT(r.nodes_processed, exact.nodes_processed);
}

TEST(BnbTest, EmptyRootRejected) {
  IntegerQuadratic problem(Vector{0.0});
  EXPECT_THROW(BnbSolver().run(problem, Box{}),
               ldafp::InvalidArgumentError);
}

TEST(BnbTest, OptionsValidateRejectsEachBadKnob) {
  EXPECT_TRUE(BnbOptions{}.validate().ok());
  {
    BnbOptions o;
    o.max_seconds = 0.0;  // expired-budget anytime semantics stay legal
    EXPECT_TRUE(o.validate().ok());
  }

  auto rejects = [](auto&& mutate) {
    BnbOptions options;
    mutate(options);
    return !options.validate().ok();
  };
  EXPECT_TRUE(rejects([](BnbOptions& o) { o.max_nodes = 0; }));
  EXPECT_TRUE(rejects([](BnbOptions& o) { o.max_seconds = -1.0; }));
  EXPECT_TRUE(rejects([](BnbOptions& o) { o.max_seconds = std::nan(""); }));
  EXPECT_TRUE(rejects([](BnbOptions& o) { o.rel_gap = -1e-9; }));

  // run() raises the rejection at the entry point.
  IntegerQuadratic problem(Vector{0.3, -0.6});
  BnbOptions bad;
  bad.max_nodes = 0;
  EXPECT_THROW(
      BnbSolver(bad).run(problem, Box(2, Interval{-2.0, 2.0})),
      ldafp::InvalidArgumentError);
}

TEST(BnbTest, StatusNames) {
  EXPECT_STREQ(to_string(BnbStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(BnbStatus::kNodeLimit), "node-limit");
  EXPECT_STREQ(to_string(BnbStatus::kTimeLimit), "time-limit");
  EXPECT_STREQ(to_string(BnbStatus::kNoSolution), "no-solution");
}

}  // namespace
}  // namespace ldafp::opt
