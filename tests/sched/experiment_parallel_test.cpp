// Determinism tests for the parallel experiment harness and the
// end-to-end LDA-FP trainer on a pooled executor: every reported number
// must be bit-identical to sequential execution (DESIGN.md §9).  These
// run under the `sched` label so ThreadSanitizer exercises the real
// LdaFpSearchProblem, not just the toy problems.
#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "core/format_policy.h"
#include "core/ldafp.h"
#include "data/synthetic.h"
#include "sched/executor.h"
#include "stats/normal.h"
#include "support/rng.h"

namespace ldafp::eval {
namespace {

ExperimentConfig quick_config() {
  ExperimentConfig config;
  config.word_lengths = {4, 6, 8};
  config.ldafp.bnb.max_nodes = 150;
  config.ldafp.bnb.max_seconds = 10.0;
  config.ldafp.bnb.rel_gap = 1e-2;
  return config;
}

void expect_identical(const std::vector<CvTrialResult>& a,
                      const std::vector<CvTrialResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].word_length, b[i].word_length);
    EXPECT_EQ(a[i].lda_error, b[i].lda_error);
    EXPECT_EQ(a[i].ldafp_error, b[i].ldafp_error);
    EXPECT_EQ(a[i].max_gap, b[i].max_gap);
  }
}

TEST(ExperimentParallelTest, RunCvSweepBitIdenticalToSequential) {
  support::Rng data_rng(22);
  const auto data = data::make_synthetic(80, data_rng);  // 160 samples

  support::Rng rng_a(7);
  const auto reference = run_cv_sweep(data, 4, quick_config(), rng_a);
  const auto next_a = data::stratified_k_fold(data, 2, rng_a);

  for (const std::size_t threads : {2u, 4u}) {
    ExperimentConfig parallel = quick_config();
    parallel.executor = sched::Executor::pooled(threads);
    support::Rng rng_b(7);
    expect_identical(reference, run_cv_sweep(data, 4, parallel, rng_b));
    // Both sweeps consumed the same randomness: the generators agree on
    // the next fold assignment they would produce.
    const auto next_b = data::stratified_k_fold(data, 2, rng_b);
    ASSERT_EQ(next_a.size(), next_b.size());
    for (std::size_t f = 0; f < next_a.size(); ++f) {
      EXPECT_EQ(next_a[f].train.size(), next_b[f].train.size());
      EXPECT_EQ(next_a[f].test.size(), next_b[f].test.size());
    }
  }
}

TEST(ExperimentParallelTest, CvSweepReportsWallSpan) {
  support::Rng data_rng(23);
  const auto data = data::make_synthetic(60, data_rng);
  ExperimentConfig config = quick_config();
  config.word_lengths = {5};
  config.executor = sched::Executor::pooled(2);
  support::Rng rng(3);
  const auto rows = run_cv_sweep(data, 3, config, rng);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].wall_seconds, 0.0);
  EXPECT_GT(rows[0].ldafp_seconds, 0.0);
}

TEST(ExperimentParallelTest, TrainerBitIdenticalWithPooledBnbExecutor) {
  // End-to-end LDA-FP training with the parallel branch-and-bound: the
  // weights, cost, node count, and certified gap must match sequential
  // training exactly.  This is the TSan workout for the concurrency
  // contract of LdaFpSearchProblem (barrier solves from pool workers).
  support::Rng rng(24);
  const auto dataset = data::make_synthetic(250, rng);
  const core::TrainingSet raw = dataset.to_training_set();
  const double beta = stats::confidence_beta(0.9999);
  const core::FormatChoice choice = core::choose_format(raw, 6, beta, 2);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);

  auto train_with = [&](sched::Executor executor) {
    core::LdaFpOptions options;
    options.bnb.max_nodes = 200;
    options.bnb.rel_gap = 1e-2;
    options.bnb.executor = std::move(executor);
    return core::LdaFpTrainer(choice.format, options).train(scaled);
  };

  const core::LdaFpResult reference =
      train_with(sched::Executor{});
  ASSERT_TRUE(reference.found());
  for (const std::size_t threads : {2u, 4u}) {
    const core::LdaFpResult parallel =
        train_with(sched::Executor::pooled(threads));
    ASSERT_TRUE(parallel.found()) << threads << " threads";
    EXPECT_EQ(parallel.cost, reference.cost) << threads << " threads";
    EXPECT_EQ(parallel.threshold, reference.threshold);
    EXPECT_EQ(parallel.search.nodes_processed,
              reference.search.nodes_processed);
    EXPECT_EQ(parallel.search.nodes_pruned, reference.search.nodes_pruned);
    EXPECT_EQ(parallel.search.status, reference.search.status);
    EXPECT_EQ(parallel.search.gap(), reference.search.gap());
    EXPECT_EQ(linalg::max_abs_diff(parallel.weights, reference.weights),
              0.0);
  }
}

TEST(ExperimentParallelTest, SharedPoolAcrossSweepAndSearchIsSafe) {
  // One pool serving both layers (sweep fan-out + intra-trial B&B):
  // waiters help, so a 2-thread pool cannot deadlock, and the numbers
  // still match fully sequential execution.
  support::Rng data_rng(25);
  const auto data = data::make_synthetic(75, data_rng);  // 150 samples

  ExperimentConfig sequential = quick_config();
  sequential.word_lengths = {4, 6};
  support::Rng rng_a(8);
  const auto reference = run_cv_sweep(data, 3, sequential, rng_a);

  ExperimentConfig nested = quick_config();
  nested.word_lengths = {4, 6};
  nested.executor = sched::Executor::pooled(2);
  nested.ldafp.bnb.executor = nested.executor;  // same pool, both layers
  support::Rng rng_b(8);
  expect_identical(reference, run_cv_sweep(data, 3, nested, rng_b));
}

}  // namespace
}  // namespace ldafp::eval
