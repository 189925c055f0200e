#include "eval/experiment.h"
#include <algorithm>
#include <limits>

#include "eval/metrics.h"
#include "sched/parallel_for.h"
#include "stats/normal.h"
#include "support/error.h"
#include "support/timer.h"

namespace ldafp::eval {

namespace {

// Per-trial telemetry, labeled by word length so sweep rows stay
// distinguishable in one shared registry.  Counters/gauges only —
// registration is idempotent and updates are atomic, so concurrent
// trials (pooled executor) need no coordination.
void publish_trial(const TrialResult& row, obs::MetricsRegistry& metrics) {
  const obs::Labels by_w = {{"w", std::to_string(row.word_length)}};
  metrics.counter("eval.trials", by_w).increment();
  metrics.gauge("eval.lda_error", by_w).set(row.lda_error);
  metrics.gauge("eval.ldafp_error", by_w).set(row.ldafp_error);
  metrics.gauge("eval.ldafp_gap", by_w).set(row.ldafp_gap);
  metrics.counter("eval.train_nodes", by_w).add(row.ldafp_nodes);
  metrics.histogram("eval.train_seconds").record(row.ldafp_seconds);
}

}  // namespace

TrialResult run_trial(const data::LabeledDataset& train,
                      const data::LabeledDataset& test, int word_length,
                      const ExperimentConfig& config) {
  LDAFP_CHECK(train.size() > 0, "empty training set");
  obs::ScopedSpan span(obs::tracer_of(config.sink), "eval.trial");
  TrialResult row;
  row.word_length = word_length;

  const core::TrainingSet raw = train.to_training_set();
  const double beta = stats::confidence_beta(config.ldafp.rho);

  // Shared preprocessing: pick QK.F and the power-of-two feature scale,
  // then quantize the (scaled) training data once for both algorithms.
  row.format_choice = core::choose_format(raw, word_length, beta,
                                          config.integer_bits);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, row.format_choice.feature_scale);
  const core::TrainingSet quantized =
      core::quantize_training_set(scaled, row.format_choice.format);
  const stats::TwoClassModel model =
      core::fit_two_class_model(quantized, config.covariance);

  // Deployment backend: the trainers produce QK.F-grid classifiers; a
  // non-default backend re-quantizes those trained weights onto its own
  // grid (for LNS, the nearest log-domain point) and scores through its
  // datapath, keeping the word-length budget W identical.
  const auto deploy = [&config](const core::FixedClassifier& clf) {
    if (config.datapath == fixed::DatapathKind::kTwosComplement) return clf;
    return core::FixedClassifier(clf.format(), clf.weights_real(),
                                 clf.threshold_real(), clf.rounding(),
                                 clf.accumulator(), config.datapath);
  };

  // Conventional baseline: float LDA (Eq. 11) on the scaled float data —
  // the paper's item (i), which does not model data quantization — with
  // the weights then rounded to the grid.
  const core::LdaModel lda = core::fit_lda(scaled, config.covariance);
  const core::FixedClassifier lda_fixed = deploy(
      core::quantize_lda(lda, model, beta, row.format_choice.format,
                         config.lda_gain, config.ldafp.rounding));
  row.lda_weights = lda_fixed.weights_real();
  row.lda_threshold = lda_fixed.threshold_real();
  row.lda_error =
      evaluate(lda_fixed, test, row.format_choice.feature_scale).error();

  // LDA-FP.  The sink rides into the trainer through the BnbOptions
  // seam: the search traces and publishes itself; results are identical
  // with or without it.
  core::LdaFpOptions fp_options = config.ldafp;
  fp_options.covariance = config.covariance;
  fp_options.bnb.sink = config.sink;
  const core::LdaFpTrainer trainer(row.format_choice.format, fp_options);
  const core::LdaFpResult fp = trainer.train(scaled);
  row.ldafp_seconds = fp.train_seconds;
  row.ldafp_status = fp.search.status;
  row.ldafp_nodes = fp.search.nodes_processed;
  row.ldafp_gap = fp.search.gap();
  if (fp.found()) {
    const core::FixedClassifier fp_fixed = deploy(trainer.make_classifier(fp));
    row.ldafp_weights = fp_fixed.weights_real();
    row.ldafp_threshold = fp_fixed.threshold_real();
    row.ldafp_error =
        evaluate(fp_fixed, test, row.format_choice.feature_scale).error();
  } else {
    row.ldafp_error = 0.5;  // chance level: no feasible classifier found
  }
  if (obs::MetricsRegistry* metrics = obs::metrics_of(config.sink)) {
    publish_trial(row, *metrics);
  }
  return row;
}

std::vector<CvTrialResult> run_cv_sweep(const data::LabeledDataset& data,
                                        std::size_t folds,
                                        const ExperimentConfig& config,
                                        support::Rng& rng) {
  // All randomness is consumed here, before the fan-out: the fold
  // assignment is the sweep's only stochastic input, so the caller's
  // Rng advances exactly as in sequential execution and every trial
  // below is a pure function of its (train, test, w, config) inputs.
  const std::vector<data::Split> splits =
      data::stratified_k_fold(data, folds, rng);

  // Flatten the (word length × fold) grid so a slow word length cannot
  // serialize the sweep, and timestamp each trial against one shared
  // clock for the per-row wall-time spans.
  struct TimedTrial {
    TrialResult trial;
    double start = 0.0;  ///< seconds since sweep start
    double end = 0.0;
  };
  const std::size_t n_words = config.word_lengths.size();
  support::WallTimer sweep_timer;
  const std::vector<TimedTrial> trials = sched::parallel_map(
      config.executor, n_words * splits.size(), [&](std::size_t flat) {
        const int w = config.word_lengths[flat / splits.size()];
        const data::Split& split = splits[flat % splits.size()];
        TimedTrial timed;
        timed.start = sweep_timer.seconds();
        timed.trial = run_trial(split.train, split.test, w, config);
        timed.end = sweep_timer.seconds();
        return timed;
      });

  // Aggregate per row in fold order — the identical floating-point
  // summation order as the sequential loop.
  std::vector<CvTrialResult> rows;
  rows.reserve(n_words);
  for (std::size_t i = 0; i < n_words; ++i) {
    CvTrialResult row;
    row.word_length = config.word_lengths[i];
    double lda_weighted = 0.0;
    double fp_weighted = 0.0;
    std::size_t total = 0;
    double first_start = std::numeric_limits<double>::infinity();
    double last_end = 0.0;
    for (std::size_t f = 0; f < splits.size(); ++f) {
      const TimedTrial& timed = trials[i * splits.size() + f];
      const TrialResult& fold = timed.trial;
      const std::size_t n = splits[f].test.size();
      lda_weighted += fold.lda_error * static_cast<double>(n);
      fp_weighted += fold.ldafp_error * static_cast<double>(n);
      total += n;
      row.ldafp_seconds += fold.ldafp_seconds;
      row.max_gap = std::max(row.max_gap, fold.ldafp_gap);
      first_start = std::min(first_start, timed.start);
      last_end = std::max(last_end, timed.end);
    }
    row.lda_error = lda_weighted / static_cast<double>(total);
    row.ldafp_error = fp_weighted / static_cast<double>(total);
    row.wall_seconds = last_end - first_start;
    rows.push_back(row);
  }
  return rows;
}

std::optional<WordLengthChoice> select_min_word_length(
    const data::LabeledDataset& data, std::size_t folds,
    const ExperimentConfig& config, double target_error,
    support::Rng& rng) {
  LDAFP_CHECK(target_error >= 0.0 && target_error <= 1.0,
              "target error must lie in [0, 1]");
  std::vector<int> sorted = config.word_lengths;
  std::sort(sorted.begin(), sorted.end());
  for (const int w : sorted) {
    ExperimentConfig one = config;
    one.word_lengths = {w};
    const auto rows = run_cv_sweep(data, folds, one, rng);
    if (!rows.empty() && rows.front().ldafp_error <= target_error) {
      return WordLengthChoice{w, rows.front().ldafp_error};
    }
  }
  return std::nullopt;
}

}  // namespace ldafp::eval
