#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "support/error.h"
#include "support/rng.h"

namespace ldafp::eval {
namespace {

ExperimentConfig quick_config() {
  ExperimentConfig config;
  config.word_lengths = {4, 8};
  config.ldafp.bnb.max_nodes = 300;
  config.ldafp.bnb.max_seconds = 5.0;
  config.ldafp.bnb.rel_gap = 1e-2;
  return config;
}

TEST(ExperimentTest, TrialProducesConsistentRow) {
  support::Rng rng(1);
  const auto train = data::make_synthetic(400, rng);
  const auto test = data::make_synthetic(400, rng);
  const TrialResult row = run_trial(train, test, 6, quick_config());
  EXPECT_EQ(row.word_length, 6);
  EXPECT_EQ(row.format_choice.format.word_length(), 6);
  EXPECT_GE(row.lda_error, 0.0);
  EXPECT_LE(row.lda_error, 1.0);
  EXPECT_GE(row.ldafp_error, 0.0);
  EXPECT_LE(row.ldafp_error, 1.0);
  EXPECT_EQ(row.lda_weights.size(), 3u);
  EXPECT_EQ(row.ldafp_weights.size(), 3u);
  EXPECT_GT(row.ldafp_nodes, 0u);
}

TEST(ExperimentTest, SweepCoversAllWordLengths) {
  support::Rng rng(2);
  const auto data = data::make_synthetic(40, rng);  // 80 samples
  support::Rng cv_rng(3);
  const auto rows = run_cv_sweep(data, 2, quick_config(), cv_rng);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].word_length, 4);
  EXPECT_EQ(rows[1].word_length, 8);
}

TEST(ExperimentTest, LdaFpNotMeaningfullyWorseThanBaseline) {
  // On the paper's synthetic set LDA-FP must beat or match rounded LDA
  // (up to test-set noise) at a short word length.
  support::Rng rng(3);
  const auto train = data::make_synthetic(1500, rng);
  const auto test = data::make_synthetic(3000, rng);
  ExperimentConfig config = quick_config();
  config.ldafp.bnb.max_nodes = 1500;
  const TrialResult row = run_trial(train, test, 6, config);
  EXPECT_LE(row.ldafp_error, row.lda_error + 0.03);
}

TEST(ExperimentTest, CvSweepAggregatesFolds) {
  support::Rng rng(4);
  const auto data = data::make_synthetic(60, rng);  // 120 samples
  support::Rng cv_rng(5);
  const auto rows = run_cv_sweep(data, 3, quick_config(), cv_rng);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GE(row.lda_error, 0.0);
    EXPECT_LE(row.lda_error, 1.0);
    EXPECT_GE(row.ldafp_error, 0.0);
    EXPECT_LE(row.ldafp_error, 1.0);
    EXPECT_GE(row.ldafp_seconds, 0.0);
  }
}

TEST(ExperimentTest, TrialIsDeterministicGivenSameInputs) {
  support::Rng rng(9);
  const auto train = data::make_synthetic(300, rng);
  const auto test = data::make_synthetic(300, rng);
  const TrialResult a = run_trial(train, test, 6, quick_config());
  const TrialResult b = run_trial(train, test, 6, quick_config());
  EXPECT_DOUBLE_EQ(a.lda_error, b.lda_error);
  EXPECT_DOUBLE_EQ(a.ldafp_error, b.ldafp_error);
  EXPECT_DOUBLE_EQ(
      linalg::max_abs_diff(a.ldafp_weights, b.ldafp_weights), 0.0);
}

TEST(ExperimentTest, SelectMinWordLengthFindsSmallestMeetingTarget) {
  support::Rng rng(10);
  const auto data = data::make_synthetic(100, rng);
  ExperimentConfig config = quick_config();
  config.word_lengths = {4, 8};
  // A 100% target is met by the smallest word length.
  support::Rng select_rng(11);
  const auto generous =
      select_min_word_length(data, 3, config, 1.0, select_rng);
  ASSERT_TRUE(generous.has_value());
  EXPECT_EQ(generous->word_length, 4);
  // An impossible target selects nothing.
  support::Rng select_rng2(11);
  const auto impossible =
      select_min_word_length(data, 3, config, 0.0, select_rng2);
  EXPECT_FALSE(impossible.has_value());
}

TEST(ExperimentTest, SelectMinWordLengthGuards) {
  support::Rng rng(12);
  const auto data = data::make_synthetic(50, rng);
  support::Rng select_rng(13);
  EXPECT_THROW(select_min_word_length(data, 3, quick_config(), -0.1,
                                      select_rng),
               ldafp::InvalidArgumentError);
}

}  // namespace
}  // namespace ldafp::eval
