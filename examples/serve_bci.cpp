// BCI movement decoding as a *service*: train once, serve concurrent
// traffic through the runtime, hot-swap the model under load.
//
//   $ ./serve_bci
//
// Pipeline: generate the synthetic ECoG stand-in (42 features) ->
// train a conventional 6-bit fixed-point decoder -> export its bits as
// a weight-ROM snapshot -> install it in a ModelRegistry -> score
// concurrent trial traffic from several producer threads, each packing
// into its own PackedBatch and calling the synchronous InferenceEngine.
// Mid-run the example installs an 8-bit retrain under the same name;
// traffic picks up the new version at the next registry resolve while
// requests already holding the old handle finish on the old bits.
// Every served label is checked against FixedClassifier::classify on
// the snapshot that scored it (exit 1 on a mismatch).  Finishes by
// printing the engine's telemetry block and the served error rates per
// model version.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/format_policy.h"
#include "core/lda.h"
#include "data/bci_synthetic.h"
#include "hw/rom_image.h"
#include "obs/export.h"
#include "runtime/runtime.h"
#include "stats/normal.h"
#include "support/rng.h"

namespace {

using namespace ldafp;

/// Conventional fixed-point decoder at `word_length` bits (the serving
/// layer does not care how the bits were trained; LDA-FP via
/// core::LdaFpTrainer plugs in identically but needs minutes at 42
/// features).
core::FixedClassifier train_decoder(const data::LabeledDataset& train,
                                    int word_length, double* scale_out) {
  const double rho = 0.9999;
  const double beta = stats::confidence_beta(rho);
  const core::TrainingSet raw = train.to_training_set();
  const core::FormatChoice choice =
      core::choose_format(raw, word_length, beta, 2);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);
  const core::LdaModel lda = core::fit_lda(scaled);
  const auto model_stats = core::fit_two_class_model(
      core::quantize_training_set(scaled, choice.format));
  *scale_out = choice.feature_scale;
  return core::quantize_lda(lda, model_stats, beta, choice.format);
}

}  // namespace

int main() {
  // 1. Data + two decoder generations (6-bit v1, 8-bit v2).
  support::Rng rng(2718);
  const data::LabeledDataset dataset = data::make_bci_synthetic(rng);
  std::printf("dataset: %zu trials x %zu features\n", dataset.size(),
              dataset.dim());
  double scale6 = 1.0, scale8 = 1.0;
  const core::FixedClassifier decoder6 = train_decoder(dataset, 6, &scale6);
  const core::FixedClassifier decoder8 = train_decoder(dataset, 8, &scale8);

  // 2. Registry: v1 installs through the ROM-image snapshot hook — the
  //    same artifact a tapeout flow would burn, served as-is.
  runtime::ModelRegistry registry;
  const hw::RomImage rom = hw::RomImage::from_classifier(decoder6);
  registry.install("bci-movement", rom);
  std::printf("installed bci-movement v1: %s, %zu weights (from ROM "
              "image)\n",
              rom.format.to_string().c_str(), rom.weights.size());

  // 3. Engine + concurrent producers.  Each producer replays scaled
  //    trials and tallies decode errors against the trial labels, per
  //    model version it actually hit, until it has served
  //    kTrialsPerProducer trials on the retrained v2.
  runtime::InferenceEngine engine;
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kTrialsPerProducer = 2000;
  std::atomic<std::uint64_t> errors_v1{0}, served_v1{0};
  std::atomic<std::uint64_t> errors_v2{0}, served_v2{0};
  std::atomic<std::uint64_t> mismatches{0};
  const double scales[2] = {scale6, scale8};

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      support::Rng traffic_rng(1000 + p);
      runtime::PackedBatch batch;
      std::vector<runtime::ScoreResult> results;
      for (std::size_t served_here_v2 = 0;
           served_here_v2 < kTrialsPerProducer;) {
        const std::size_t trial = static_cast<std::size_t>(
            traffic_rng.uniform_int(0,
                                    static_cast<std::int64_t>(
                                        dataset.size()) - 1));
        // Resolve the current model each request — this is what makes
        // the hot swap take effect mid-traffic.
        const runtime::ModelHandle model = registry.get("bci-movement");
        const double scale = scales[model->version - 1];
        linalg::Vector x = dataset.samples[trial];
        x *= scale;  // the decoder's preprocessing (power-of-two shift)
        batch.clear();
        model->scorer.pack_into(batch, &x, 1);
        if (engine.score(model, batch, results) !=
                runtime::SubmitStatus::kAccepted ||
            results[0].label != model->classifier.classify(x) ||
            results[0].projection_raw != model->classifier.project_raw(x)) {
          mismatches.fetch_add(1);
          return;
        }
        const bool wrong = results[0].label != dataset.labels[trial];
        if (model->version == 1) {
          served_v1.fetch_add(1);
          if (wrong) errors_v1.fetch_add(1);
        } else {
          served_v2.fetch_add(1);
          ++served_here_v2;
          if (wrong) errors_v2.fetch_add(1);
        }
      }
    });
  }

  // 4. Hot swap: once v1 has served kTrialsPerProducer trials, publish
  //    the 8-bit retrain under the producers' feet.
  while (served_v1.load() < kTrialsPerProducer && mismatches.load() == 0) {
    std::this_thread::yield();
  }
  registry.install("bci-movement", decoder8);
  std::printf("hot-swapped bci-movement to v2 (%s) under load\n",
              decoder8.format().to_string().c_str());

  for (auto& t : producers) t.join();
  engine.shutdown();

  // 5. Served quality + runtime telemetry.
  std::printf("\nserved traffic (training-set replay):\n");
  if (served_v1.load() > 0) {
    std::printf("  v1 (6-bit): %llu trials, %.2f%% decode error\n",
                static_cast<unsigned long long>(served_v1.load()),
                100.0 * static_cast<double>(errors_v1.load()) /
                    static_cast<double>(served_v1.load()));
  }
  if (served_v2.load() > 0) {
    std::printf("  v2 (8-bit): %llu trials, %.2f%% decode error\n",
                static_cast<unsigned long long>(served_v2.load()),
                100.0 * static_cast<double>(errors_v2.load()) /
                    static_cast<double>(served_v2.load()));
  }
  std::printf("  bit-identical to per-sample classify: %s\n\n",
              mismatches.load() == 0 ? "yes" : "NO");
  std::printf("%s\n", obs::to_table(engine.stats().snapshot()).c_str());
  for (const auto& info : registry.list()) {
    std::printf("registry: %s latest v%llu (%zu versions, %zu features, "
                "%s)\n",
                info.name.c_str(),
                static_cast<unsigned long long>(info.latest_version),
                info.version_count, info.dim, info.format.c_str());
  }
  return mismatches.load() == 0 ? 0 : 1;
}
