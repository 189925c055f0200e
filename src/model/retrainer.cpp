#include "model/retrainer.h"

#include <filesystem>
#include <limits>

#include "core/lda.h"
#include "core/training_set.h"
#include "stats/normal.h"
#include "support/error.h"

namespace ldafp::model {

const char* to_string(RetrainMode mode) {
  switch (mode) {
    case RetrainMode::kStreamingLda: return "streaming-lda";
    case RetrainMode::kLdaFp: return "lda-fp";
  }
  return "?";
}

Status RetrainerOptions::validate() const {
  if (model_name.empty()) return Status::invalid("model_name must be set");
  if (window_capacity < 4) {
    return Status::invalid("window_capacity must be >= 4");
  }
  if (holdout < 1 || holdout >= window_capacity) {
    return Status::invalid("holdout must be in [1, window_capacity)");
  }
  if (min_class_samples < 1) {
    return Status::invalid("min_class_samples must be >= 1");
  }
  if (!(accuracy_tolerance >= 0.0)) {
    return Status::invalid("accuracy_tolerance must be >= 0");
  }
  if (mode != RetrainMode::kStreamingLda && mode != RetrainMode::kLdaFp) {
    return Status::invalid("unknown retrain mode");
  }
  return trainer.validate();
}

OnlineRetrainer::OnlineRetrainer(runtime::ModelRegistry& registry,
                                 RetrainerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      moments_(1),  // re-sized on the first observe()
      group_(options_.executor) {
  throw_if_error(options_.validate());
  beta_ = stats::confidence_beta(options_.trainer.rho);
  window_.reserve(options_.window_capacity);
}

OnlineRetrainer::~OnlineRetrainer() { wait(); }

runtime::ModelHandle OnlineRetrainer::bootstrap(
    const core::FixedClassifier& clf, TrainingProvenance provenance) {
  std::lock_guard<std::mutex> retrain_lock(retrain_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  return install_locked(clf, std::move(provenance));
}

void OnlineRetrainer::observe(const linalg::Vector& x, core::Label label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (moments_.dim() != x.size()) {
    LDAFP_CHECK(moments_.count() == 0,
                "labeled sample dimension changed mid-stream");
    moments_ = stats::StreamingTwoClass(x.size());
  }
  const std::size_t cap = options_.window_capacity;
  if (window_.size() < cap) {
    window_.push_back(LabeledSample{x, label});
  } else {
    window_[observed_ % cap] = LabeledSample{x, label};
  }
  ++observed_;
  // The sample that just aged out of the newest-`holdout` region joins
  // the streaming sufficient statistics — so the statistics never see
  // the held-out slice and the candidate validation stays honest.
  if (observed_ > options_.holdout) {
    const std::size_t crossed = observed_ - options_.holdout - 1;
    const LabeledSample& s = window_[crossed % cap];
    (s.label == core::Label::kClassA ? moments_.class_a()
                                     : moments_.class_b())
        .add(s.x);
  }
  if (obs::MetricsRegistry* m = obs::metrics_of(options_.sink)) {
    m->gauge("model.window_samples", {{"model", options_.model_name}})
        .set(static_cast<double>(window_.size()));
  }
}

void OnlineRetrainer::observe_score(double projection_real) {
  std::lock_guard<std::mutex> lock(mu_);
  drift_.observe(projection_real);
}

bool OnlineRetrainer::drift_detected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_.drifted();
}

void OnlineRetrainer::publish_drift() const {
  obs::MetricsRegistry* m = obs::metrics_of(options_.sink);
  if (m == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  drift_.publish(*m, options_.model_name);
}

RetrainOutcome OnlineRetrainer::retrain_now() {
  std::lock_guard<std::mutex> retrain_lock(retrain_mu_);
  RetrainOutcome outcome;

  // Snapshot the mutable state; train outside the lock so observers
  // and serving traffic never stall behind a retrain.
  std::vector<LabeledSample> chron;
  std::optional<stats::StreamingTwoClass> moments;
  std::optional<core::FixedClassifier> incumbent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t cap = options_.window_capacity;
    const std::size_t have = window_.size();
    chron.reserve(have);
    for (std::size_t c = observed_ - have; c < observed_; ++c) {
      chron.push_back(window_[c % cap]);
    }
    moments.emplace(moments_);
    incumbent = incumbent_;
  }

  // Newest `holdout` samples validate; the rest (and the streaming
  // statistics, which exclude the holdout by construction) train.
  if (chron.size() <= options_.holdout) {
    outcome.reason = "insufficient-data";
    finish(outcome);
    return outcome;
  }
  const std::size_t train_n = chron.size() - options_.holdout;
  std::vector<LabeledSample> holdout(chron.begin() +
                                         static_cast<std::ptrdiff_t>(train_n),
                                     chron.end());
  chron.resize(train_n);
  std::size_t train_a = 0;
  for (const LabeledSample& s : chron) {
    if (s.label == core::Label::kClassA) ++train_a;
  }
  if (train_a < options_.min_class_samples ||
      train_n - train_a < options_.min_class_samples) {
    outcome.reason = "insufficient-data";
    finish(outcome);
    return outcome;
  }

  outcome.attempted = true;
  retrains_.fetch_add(1, std::memory_order_relaxed);
  bump("model.retrains");

  std::optional<core::FixedClassifier> candidate;
  if (options_.mode == RetrainMode::kStreamingLda) {
    // Closed-form path: sufficient statistics → LDA → overflow-aware
    // quantization.  No pass over the window.
    const stats::TwoClassModel model_stats = moments->model();
    const core::LdaModel lda = core::fit_lda(model_stats);
    candidate.emplace(core::quantize_lda(lda, model_stats, beta_,
                                         options_.format,
                                         core::LdaGainPolicy::kOverflowAware,
                                         options_.trainer.rounding));
  } else {
    core::TrainingSet ts;
    for (LabeledSample& s : chron) {
      (s.label == core::Label::kClassA ? ts.class_a : ts.class_b)
          .push_back(std::move(s.x));
    }
    const core::LdaFpTrainer trainer(options_.format, options_.trainer);
    const core::LdaFpResult result = trainer.train(ts);
    if (!result.found()) {
      outcome.reason = "no-feasible";
      bump("model.rejected");
      finish(outcome);
      return outcome;
    }
    candidate.emplace(trainer.make_classifier(result));
  }

  outcome.candidate_error = holdout_error(*candidate, holdout);
  outcome.incumbent_error =
      incumbent.has_value() ? holdout_error(*incumbent, holdout)
                            : std::numeric_limits<double>::infinity();

  if (outcome.candidate_error <=
      outcome.incumbent_error + options_.accuracy_tolerance) {
    TrainingProvenance pv;
    pv.cv_accuracy = 1.0 - outcome.candidate_error;
    pv.word_length =
        static_cast<std::uint32_t>(options_.format.word_length());
    std::lock_guard<std::mutex> lock(mu_);
    const runtime::ModelHandle handle =
        install_locked(*candidate, std::move(pv));
    outcome.promoted = true;
    outcome.version = handle->version;
    outcome.reason = "promoted";
    promotions_.fetch_add(1, std::memory_order_relaxed);
    bump("model.promotions");
    rearm_drift_locked(*candidate, holdout);
  } else {
    outcome.reason = "not-better";
    bump("model.rejected");
  }
  finish(outcome);
  return outcome;
}

bool OnlineRetrainer::retrain_async() {
  bool expected = false;
  if (!inflight_.compare_exchange_strong(expected, true)) return false;
  group_.run([this] {
    retrain_now();
    inflight_.store(false);
  });
  return true;
}

void OnlineRetrainer::wait() { group_.wait(); }

RetrainOutcome OnlineRetrainer::last_outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_outcome_;
}

runtime::ModelHandle OnlineRetrainer::install_locked(
    const core::FixedClassifier& clf, TrainingProvenance provenance) {
  const runtime::ModelHandle handle =
      registry_.install(options_.model_name, clf);
  // Serving resolves only the latest version, and handles in flight
  // keep theirs alive, so older versions are dead weight.
  registry_.prune(options_.model_name);
  provenance.name = options_.model_name;
  provenance.model_version = handle->version;
  if (!options_.store_dir.empty()) {
    std::filesystem::create_directories(options_.store_dir);
    save_model(options_.store_dir + "/" + options_.model_name + ".v" +
                   std::to_string(handle->version) + ".ldafp",
               SavedModel{clf, provenance});
  }
  incumbent_ = clf;
  if (obs::MetricsRegistry* m = obs::metrics_of(options_.sink)) {
    m->gauge("model.version", {{"model", options_.model_name}})
        .set(static_cast<double>(handle->version));
  }
  return handle;
}

double OnlineRetrainer::holdout_error(
    const core::FixedClassifier& clf,
    const std::vector<LabeledSample>& holdout) const {
  if (holdout.empty()) return 0.0;
  std::size_t wrong = 0;
  for (const LabeledSample& s : holdout) {
    if (clf.classify(s.x) != s.label) ++wrong;
  }
  return static_cast<double>(wrong) / static_cast<double>(holdout.size());
}

void OnlineRetrainer::rearm_drift_locked(
    const core::FixedClassifier& clf,
    const std::vector<LabeledSample>& holdout) {
  if (holdout.empty()) return;
  std::vector<double> scores;
  scores.reserve(holdout.size());
  for (const LabeledSample& s : holdout) {
    scores.push_back(clf.datapath().to_real(clf.project_raw(s.x)));
  }
  drift_.set_reference(std::move(scores));
}

void OnlineRetrainer::bump(const char* counter_name) const {
  if (obs::MetricsRegistry* m = obs::metrics_of(options_.sink)) {
    m->counter(counter_name, {{"model", options_.model_name}}).increment();
  }
}

void OnlineRetrainer::finish(RetrainOutcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  last_outcome_ = std::move(outcome);
  if (obs::MetricsRegistry* m = obs::metrics_of(options_.sink)) {
    drift_.publish(*m, options_.model_name);
  }
}

}  // namespace ldafp::model
