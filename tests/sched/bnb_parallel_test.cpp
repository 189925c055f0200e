// Thread-invariance property tests for the parallel branch-and-bound
// driver: at any thread count the search must reproduce the sequential
// incumbent, certified bound, status, and node counters bit-for-bit
// (DESIGN.md §9).  The problem below is the bnb_test.cpp toy with its
// telemetry made atomic, satisfying the BnbProblem concurrency contract.
#include "opt/bnb.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "core/format_policy.h"
#include "core/ldafp.h"
#include "core/training_set.h"
#include "data/synthetic.h"
#include "sched/executor.h"
#include "stats/normal.h"
#include "support/rng.h"

namespace ldafp::opt {
namespace {

using linalg::Vector;

/// Minimize Σ (x_i - target_i)² over integer points in the box.
/// bound / is_terminal / solve_terminal / branch are pure functions of
/// the box; the call counter is the only mutable state and is atomic.
class AtomicIntegerQuadratic : public BnbProblem {
 public:
  explicit AtomicIntegerQuadratic(Vector target)
      : target_(std::move(target)) {}

  std::atomic<int> bound_calls{0};

  double value(const Vector& x) const {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target_[i];
      s += d * d;
    }
    return s;
  }

  NodeBounds bound(const Box& box, const BoundContext& /*ctx*/) override {
    bound_calls.fetch_add(1, std::memory_order_relaxed);
    NodeBounds out;
    Vector rounded(target_.size());
    double lb = 0.0;
    for (std::size_t i = 0; i < target_.size(); ++i) {
      const double clamped =
          std::min(std::max(target_[i], box[i].lo), box[i].hi);
      const double d = clamped - target_[i];
      lb += d * d;
      rounded[i] = std::round(clamped);
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

/// The fields the determinism contract covers (everything but seconds).
void expect_identical(const BnbResult& a, const BnbResult& b,
                      std::size_t threads) {
  EXPECT_EQ(a.status, b.status) << threads << " threads";
  EXPECT_EQ(a.nodes_processed, b.nodes_processed) << threads << " threads";
  EXPECT_EQ(a.nodes_pruned, b.nodes_pruned) << threads << " threads";
  EXPECT_EQ(a.best_value, b.best_value) << threads << " threads";
  EXPECT_EQ(a.lower_bound, b.lower_bound) << threads << " threads";
  EXPECT_EQ(a.gap(), b.gap()) << threads << " threads";
  ASSERT_EQ(a.best_point.has_value(), b.best_point.has_value());
  if (a.best_point.has_value()) {
    ASSERT_EQ(a.best_point->size(), b.best_point->size());
    for (std::size_t i = 0; i < a.best_point->size(); ++i) {
      EXPECT_EQ((*a.best_point)[i], (*b.best_point)[i])
          << threads << " threads, coordinate " << i;
    }
  }
}

BnbResult run_with_threads(const Box& root, std::size_t threads,
                           BnbOptions options = {}) {
  AtomicIntegerQuadratic problem(Vector{1.3, -2.7, 0.5, 3.1});
  options.executor = sched::Executor::pooled(threads);
  return BnbSolver(options).run(problem, root);
}

TEST(BnbParallelTest, FullSearchInvariantAcrossThreadCounts) {
  const Box root(4, Interval{-20.0, 20.0});
  const BnbResult reference = run_with_threads(root, 1);
  EXPECT_EQ(reference.status, BnbStatus::kOptimal);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    expect_identical(reference, run_with_threads(root, threads), threads);
  }
}

TEST(BnbParallelTest, NodeBudgetStopsAtSameNodeAnyThreadCount) {
  // An exhausted budget is the sharpest determinism probe: one extra or
  // missing expansion shifts the anytime incumbent and the gap.
  const Box root(4, Interval{-50.0, 50.0});
  BnbOptions options;
  options.max_nodes = 11;
  const BnbResult reference = run_with_threads(root, 1, options);
  EXPECT_EQ(reference.status, BnbStatus::kNodeLimit);
  EXPECT_EQ(reference.nodes_processed, 11u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    expect_identical(reference, run_with_threads(root, threads, options),
                     threads);
  }
}

TEST(BnbParallelTest, GapToleranceStopsIdentically) {
  const Box root(4, Interval{-50.0, 50.0});
  BnbOptions options;
  options.rel_gap = 0.5;
  const BnbResult reference = run_with_threads(root, 1, options);
  for (const std::size_t threads : {2u, 4u}) {
    expect_identical(reference, run_with_threads(root, threads, options),
                     threads);
  }
}

TEST(BnbParallelTest, ExpiredTimeBudgetStopsBeforeFirstNodeEverywhere) {
  // max_seconds = 0 expires before the first pop in both modes — the
  // one time-budget outcome that *is* machine-independent.
  const Box root(4, Interval{-50.0, 50.0});
  BnbOptions options;
  options.max_seconds = 0.0;
  for (const std::size_t threads : {1u, 4u}) {
    const BnbResult r = run_with_threads(root, threads, options);
    EXPECT_EQ(r.status, BnbStatus::kTimeLimit) << threads << " threads";
    EXPECT_EQ(r.nodes_processed, 0u) << threads << " threads";
  }
}

TEST(BnbParallelTest, WarmStartInvariantAcrossThreadCounts) {
  const Box root(4, Interval{-100.0, 100.0});
  const auto incumbent = std::make_pair(Vector{1.0, -3.0, 0.0, 3.0}, 0.43);
  BnbResult results[2];
  const std::size_t counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    AtomicIntegerQuadratic problem(Vector{1.3, -2.7, 0.5, 3.1});
    BnbOptions options;
    options.executor = sched::Executor::pooled(counts[k]);
    results[k] = BnbSolver(options).run(problem, root, incumbent);
  }
  expect_identical(results[0], results[1], 4);
}

// --- Warm-started LDA-FP training: the tree-wide warm starts of
// --- DESIGN.md §10 must preserve the thread-invariance contract above
// --- on the real trainer (seeds are a pure function of node identity).

class LdaFpWarmStartParallelTest : public ::testing::Test {
 protected:
  static core::LdaFpResult train(bool warm, std::size_t threads,
                                 std::size_t max_nodes) {
    support::Rng rng(42);
    const core::TrainingSet raw =
        data::make_synthetic(200, rng).to_training_set();
    const double beta = stats::confidence_beta(0.999);
    const core::FormatChoice choice = core::choose_format(raw, 6, beta, 2);
    const core::TrainingSet scaled =
        core::scale_training_set(raw, choice.feature_scale);

    core::LdaFpOptions options;
    options.bnb.max_nodes = max_nodes;
    options.bnb.warm_start_relaxations = warm;
    options.bnb.executor = sched::Executor::pooled(threads);
    return core::LdaFpTrainer(choice.format, options).train(scaled);
  }

  static void expect_same_training(const core::LdaFpResult& a,
                                   const core::LdaFpResult& b,
                                   const char* label) {
    ASSERT_EQ(a.found(), b.found()) << label;
    ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
    for (std::size_t i = 0; i < a.weights.size(); ++i) {
      EXPECT_EQ(a.weights[i], b.weights[i]) << label << " weight " << i;
    }
    EXPECT_EQ(a.cost, b.cost) << label;
    EXPECT_EQ(a.threshold, b.threshold) << label;
    EXPECT_EQ(a.search.status, b.search.status) << label;
    EXPECT_EQ(a.search.nodes_processed, b.search.nodes_processed) << label;
    EXPECT_EQ(a.search.best_value, b.search.best_value) << label;
    EXPECT_EQ(a.search.lower_bound, b.search.lower_bound) << label;
  }

  static void expect_same_counters(const core::LdaFpResult& a,
                                   const core::LdaFpResult& b,
                                   const char* label) {
    const NodeStats& sa = a.search.solver_stats;
    const NodeStats& sb = b.search.solver_stats;
    EXPECT_EQ(sa.relaxations, sb.relaxations) << label;
    EXPECT_EQ(sa.phase1_skips, sb.phase1_skips) << label;
    EXPECT_EQ(sa.newton_iterations, sb.newton_iterations) << label;
    EXPECT_EQ(sa.factorizations, sb.factorizations) << label;
    EXPECT_EQ(sa.line_search_trials, sb.line_search_trials) << label;
    EXPECT_EQ(sa.polish_exact_evals, sb.polish_exact_evals) << label;
  }
};

TEST_F(LdaFpWarmStartParallelTest, WarmTrainingInvariantAcrossThreads) {
  // Budget-truncated search: the sharpest probe — any thread-dependent
  // seed or commit-order slip shifts the anytime incumbent.
  const core::LdaFpResult reference = train(/*warm=*/true, 1, 120);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const core::LdaFpResult r = train(true, threads, 120);
    expect_same_training(reference, r, "warm");
    expect_same_counters(reference, r, "warm");
  }
}

TEST_F(LdaFpWarmStartParallelTest, ColdTrainingInvariantAcrossThreads) {
  const core::LdaFpResult reference = train(/*warm=*/false, 1, 120);
  for (const std::size_t threads : {2u, 4u}) {
    const core::LdaFpResult r = train(false, threads, 120);
    expect_same_training(reference, r, "cold");
    expect_same_counters(reference, r, "cold");
  }
}

TEST_F(LdaFpWarmStartParallelTest, WarmSkipsPhaseOneColdNever) {
  const core::LdaFpResult warm = train(true, 4, 120);
  const core::LdaFpResult cold = train(false, 4, 120);
  EXPECT_GT(warm.search.solver_stats.phase1_skips, 0u);
  EXPECT_EQ(cold.search.solver_stats.phase1_skips, 0u);
  EXPECT_GT(warm.search.solver_stats.relaxations, 0u);
  EXPECT_LE(warm.search.solver_stats.phase1_skips,
            warm.search.solver_stats.relaxations);
  // Warm starts save Newton work on the same tree prefix.
  EXPECT_LT(warm.search.solver_stats.newton_iterations,
            cold.search.solver_stats.newton_iterations);
}

TEST_F(LdaFpWarmStartParallelTest, WarmMatchesColdWhenSearchCompletes) {
  // With enough budget to prove optimality, the warm and cold searches
  // must land on the same trained classifier bit for bit.
  const core::LdaFpResult warm = train(true, 4, 100000);
  const core::LdaFpResult cold = train(false, 4, 100000);
  ASSERT_EQ(warm.search.status, BnbStatus::kOptimal);
  expect_same_training(warm, cold, "warm-vs-cold");
}

}  // namespace
}  // namespace ldafp::opt
