// Online retraining orchestration: candidate validation against the
// incumbent on the held-out window slice, the drift gate, durable
// versioned promotion, and a registry pruned to the serving version.
#include "model/retrainer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "runtime/registry.h"
#include "support/rng.h"

namespace ldafp::model {
namespace {

using linalg::Vector;

constexpr std::size_t kDim = 3;

/// Class A clusters at +shift, class B at -shift (classify() maps the
/// higher projection to class A).
Vector draw_sample(support::Rng& rng, core::Label label, double shift) {
  Vector x(kDim);
  const double mean = label == core::Label::kClassA ? shift : -shift;
  for (std::size_t m = 0; m < kDim; ++m) {
    x[m] = rng.gaussian(mean, 0.3);
  }
  return x;
}

/// An incumbent that gets the boundary right (positive weights).
core::FixedClassifier good_incumbent() {
  return core::FixedClassifier(fixed::FixedFormat(3, 3),
                               Vector{0.5, 0.5, 0.5}, 0.0);
}

/// An incumbent with the boundary inverted — wrong on almost every
/// sample, so any freshly trained candidate beats it.
core::FixedClassifier bad_incumbent() {
  return core::FixedClassifier(fixed::FixedFormat(3, 3),
                               Vector{-0.5, -0.5, -0.5}, 0.0);
}

RetrainerOptions small_options(const std::string& name = "test") {
  RetrainerOptions options;
  options.model_name = name;
  options.format = fixed::FixedFormat(3, 3);
  options.window_capacity = 256;
  options.holdout = 32;
  options.min_class_samples = 8;
  return options;
}

void feed(OnlineRetrainer& retrainer, support::Rng& rng, std::size_t n,
          double shift = 1.0, bool flip_labels = false) {
  for (std::size_t i = 0; i < n; ++i) {
    const core::Label truth =
        (i % 2 == 0) ? core::Label::kClassA : core::Label::kClassB;
    const Vector x = draw_sample(rng, truth, shift);
    const core::Label reported =
        flip_labels ? (truth == core::Label::kClassA ? core::Label::kClassB
                                                     : core::Label::kClassA)
                    : truth;
    retrainer.observe(x, reported);
  }
}

TEST(RetrainerOptionsTest, Validation) {
  EXPECT_TRUE(small_options().validate().ok());
  RetrainerOptions bad = small_options();
  bad.model_name = "";
  EXPECT_FALSE(bad.validate().ok());
  bad = small_options();
  bad.holdout = bad.window_capacity;
  EXPECT_FALSE(bad.validate().ok());
  bad = small_options();
  bad.holdout = 0;
  EXPECT_FALSE(bad.validate().ok());
  bad = small_options();
  bad.accuracy_tolerance = -1.0;
  EXPECT_FALSE(bad.validate().ok());
  bad = small_options();
  bad.min_class_samples = 0;
  EXPECT_FALSE(bad.validate().ok());
}

TEST(RetrainerTest, BootstrapInstallsVersionOne) {
  runtime::ModelRegistry registry;
  OnlineRetrainer retrainer(registry, small_options());
  const runtime::ModelHandle handle =
      retrainer.bootstrap(good_incumbent());
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->version, 1u);
  EXPECT_EQ(handle->name, "test");
  ASSERT_NE(registry.get("test"), nullptr);
  EXPECT_EQ(registry.get("test")->version, 1u);
}

TEST(RetrainerTest, RetrainWithoutDataIsInsufficient) {
  runtime::ModelRegistry registry;
  OnlineRetrainer retrainer(registry, small_options());
  retrainer.bootstrap(good_incumbent());
  const RetrainOutcome outcome = retrainer.retrain_now();
  EXPECT_FALSE(outcome.attempted);
  EXPECT_FALSE(outcome.promoted);
  EXPECT_EQ(outcome.reason, "insufficient-data");
  EXPECT_EQ(retrainer.retrains(), 0u);
}

TEST(RetrainerTest, PromotesCandidateThatBeatsIncumbent) {
  runtime::ModelRegistry registry;
  OnlineRetrainer retrainer(registry, small_options());
  retrainer.bootstrap(bad_incumbent());
  support::Rng rng(101);
  feed(retrainer, rng, 200);

  const RetrainOutcome outcome = retrainer.retrain_now();
  EXPECT_TRUE(outcome.attempted);
  EXPECT_TRUE(outcome.promoted);
  EXPECT_EQ(outcome.reason, "promoted");
  EXPECT_EQ(outcome.version, 2u);
  EXPECT_LT(outcome.candidate_error, outcome.incumbent_error);
  EXPECT_EQ(retrainer.retrains(), 1u);
  EXPECT_EQ(retrainer.promotions(), 1u);

  // The registry now serves the candidate (a fresh version), and its
  // boundary is the right way around.
  const runtime::ModelHandle latest = registry.get("test");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
  support::Rng probe_rng(202);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    const core::Label truth =
        (i % 2 == 0) ? core::Label::kClassA : core::Label::kClassB;
    if (latest->classifier.classify(draw_sample(probe_rng, truth, 1.0)) ==
        truth) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 95u);
}

TEST(RetrainerTest, RejectsCandidateWorseThanIncumbent) {
  runtime::ModelRegistry registry;
  OnlineRetrainer retrainer(registry, small_options());
  retrainer.bootstrap(good_incumbent());
  support::Rng rng(303);
  // Training slice carries flipped labels (the candidate learns the
  // boundary inverted); the newest `holdout` samples are honest, so
  // validation sees the candidate fail where the incumbent succeeds.
  feed(retrainer, rng, 168, 1.0, /*flip_labels=*/true);
  feed(retrainer, rng, 32, 1.0, /*flip_labels=*/false);

  const RetrainOutcome outcome = retrainer.retrain_now();
  EXPECT_TRUE(outcome.attempted);
  EXPECT_FALSE(outcome.promoted);
  EXPECT_EQ(outcome.reason, "not-better");
  EXPECT_GT(outcome.candidate_error, outcome.incumbent_error);
  EXPECT_EQ(retrainer.promotions(), 0u);
  EXPECT_EQ(registry.get("test")->version, 1u);  // incumbent still serves
}

TEST(RetrainerTest, LdaFpModeTrainsAndPromotes) {
  runtime::ModelRegistry registry;
  RetrainerOptions options = small_options();
  options.mode = RetrainMode::kLdaFp;
  options.trainer.bnb.max_nodes = 50;
  options.trainer.bnb.max_seconds = 10.0;
  OnlineRetrainer retrainer(registry, options);
  retrainer.bootstrap(bad_incumbent());
  support::Rng rng(404);
  feed(retrainer, rng, 200);

  const RetrainOutcome outcome = retrainer.retrain_now();
  EXPECT_TRUE(outcome.attempted);
  EXPECT_TRUE(outcome.promoted) << outcome.reason;
  EXPECT_LT(outcome.candidate_error, outcome.incumbent_error);
}

TEST(RetrainerTest, StoreWritesVersionedFiles) {
  const std::string store =
      testing::TempDir() + "retrainer_store_test";
  std::filesystem::remove_all(store);
  runtime::ModelRegistry registry;
  RetrainerOptions options = small_options("durable");
  options.store_dir = store;
  OnlineRetrainer retrainer(registry, options);
  retrainer.bootstrap(bad_incumbent());
  EXPECT_TRUE(std::filesystem::exists(store + "/durable.v1.ldafp"));

  support::Rng rng(606);
  feed(retrainer, rng, 200);
  ASSERT_TRUE(retrainer.retrain_now().promoted);
  EXPECT_TRUE(std::filesystem::exists(store + "/durable.v2.ldafp"));
  // The registry keeps only v2; the store keeps both versions.
  EXPECT_TRUE(std::filesystem::exists(store + "/durable.v1.ldafp"));

  // The v2 file decodes back to the exact serving bits.
  const DecodeResult loaded = load_model(store + "/durable.v2.ldafp");
  ASSERT_TRUE(loaded.ok());
  const runtime::ModelHandle v2 = registry.get("durable");
  ASSERT_NE(v2, nullptr);
  ASSERT_EQ(v2->version, 2u);
  for (std::size_t i = 0; i < v2->classifier.dim(); ++i) {
    EXPECT_EQ(loaded.model->classifier.weight_words()[i],
              v2->classifier.weight_words()[i]);
  }
  EXPECT_EQ(loaded.model->provenance.model_version, 2u);
  std::filesystem::remove_all(store);
}

// Every promotion installs a new version and prunes the older ones, so
// the registry holds one version per name however often it retrains,
// while version numbers keep counting and a held handle stays valid.
TEST(RetrainerTest, PromotionsKeepOneRegistryVersion) {
  runtime::ModelRegistry registry;
  RetrainerOptions options = small_options();
  options.accuracy_tolerance = 1.0;  // promote whatever retrains
  OnlineRetrainer retrainer(registry, options);
  const runtime::ModelHandle first = retrainer.bootstrap(bad_incumbent());
  support::Rng rng(1001);
  feed(retrainer, rng, 200);
  constexpr std::uint64_t kPromotions = 4;
  for (std::uint64_t k = 0; k < kPromotions; ++k) {
    ASSERT_TRUE(retrainer.retrain_now().promoted);
  }
  const std::vector<runtime::ModelInfo> rows = registry.list();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].version_count, 1u);
  EXPECT_EQ(rows[0].latest_version, 1 + kPromotions);
  EXPECT_EQ(registry.get("test")->version, 1 + kPromotions);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->classifier.weight_words(),
            bad_incumbent().weight_words());
}

TEST(RetrainerTest, DriftGateArmsAfterPromotionAndTriggersRetrain) {
  runtime::ModelRegistry registry;
  RetrainerOptions options = small_options();
  // The promotion-time reference is the held-out slice's scores.  With
  // kDriftWindow matching live scores against a reference this large,
  // chance KS and PSI stay far below the drift thresholds; only the
  // genuinely shifted stream below trips the gate.
  options.window_capacity = 2048;
  options.holdout = kDriftWindow;
  OnlineRetrainer retrainer(registry, options);
  retrainer.bootstrap(bad_incumbent());
  support::Rng rng(707);
  feed(retrainer, rng, 1200);
  ASSERT_TRUE(retrainer.retrain_now().promoted);

  // Scores matching the promotion-time reference: no drift.
  EXPECT_FALSE(retrainer.drift_detected());
  const runtime::ModelHandle latest = registry.get("test");
  for (std::size_t i = 0; i < kDriftWindow; ++i) {
    const core::Label truth =
        (i % 2 == 0) ? core::Label::kClassA : core::Label::kClassB;
    const core::FixedClassifier& clf = latest->classifier;
    retrainer.observe_score(clf.datapath().to_real(
        clf.project_raw(draw_sample(rng, truth, 1.0))));
  }
  EXPECT_FALSE(retrainer.drift_detected());

  // A shifted score stream fires the gate, and a retrain it triggers
  // (inline executor) runs synchronously.
  for (std::size_t i = 0; i < kDriftWindow; ++i) {
    retrainer.observe_score(5.0 + 0.01 * static_cast<double>(i));
  }
  EXPECT_TRUE(retrainer.drift_detected());
  const std::uint64_t before = retrainer.retrains();
  EXPECT_TRUE(retrainer.retrain_async());
  retrainer.wait();
  EXPECT_EQ(retrainer.retrains(), before + 1);
}

TEST(RetrainerTest, PublishesLifecycleMetrics) {
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  runtime::ModelRegistry registry;
  RetrainerOptions options = small_options("observed");
  options.sink = &sink;
  OnlineRetrainer retrainer(registry, options);
  retrainer.bootstrap(bad_incumbent());
  support::Rng rng(808);
  feed(retrainer, rng, 200);
  ASSERT_TRUE(retrainer.retrain_now().promoted);

  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  const obs::Labels labels = {{"model", "observed"}};
  EXPECT_EQ(snapshot.counter_value("model.retrains", labels), 1u);
  EXPECT_EQ(snapshot.counter_value("model.promotions", labels), 1u);
  const auto* version = snapshot.find_gauge("model.version", labels);
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->value, 2.0);
  EXPECT_NE(snapshot.find_gauge("model.drift.ks", labels), nullptr);
  const auto* window =
      snapshot.find_gauge("model.window_samples", labels);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->value, 200.0);
}

}  // namespace
}  // namespace ldafp::model
