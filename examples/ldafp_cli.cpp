// Command-line trainer: the adoption path for users with their own data.
//
//   ldafp_cli train  <train.csv> <word_length> [--k K] [--rho R]
//                    [--nodes N] [--seconds S] [--threads T] [--rom out.hex]
//                    [--save out.ldafp] [--datapath fixed|lns]
//                    [--metrics-json FILE] [--trace FILE]
//   ldafp_cli eval   <rom.hex> <test.csv> [--scale S]
//   ldafp_cli sweep  <data.csv> <target_error_percent> [--folds F]
//                    [--threads T] [--datapath fixed|lns]
//                    [--metrics-json FILE] [--trace FILE]
//   ldafp_cli model inspect <file.ldafp>
//   ldafp_cli serve  [--port P] [--io-threads N] [--model NAME=FILE ...]
//                    [--synthetic] [--retrain-data CSV] [--retrain-after N]
//                    [--retrain-mode streaming|ldafp] [--store DIR]
//                    [--metrics-json FILE]
//
// CSV rows are features... , label (0 = class A, 1 = class B).
// `train` fits LDA-FP, prints the baseline comparison, and optionally
// writes the weight ROM image and/or the versioned `.ldafp` model file
// (DESIGN.md §13: classifier bits + training provenance + CRC, with a
// JSON metadata sidecar).  `model inspect` pretty-prints a model file.
// `--datapath lns` deploys the trained weights on the logarithmic
// number system backend (fixed/datapath.h): training still searches the
// QK.F grid, the result is re-quantized to the log grid, and every
// reported error runs through the LNS datapath.  The combination rules
// live in validate_datapath() — LNS has no hex ROM form and needs
// word lengths >= 4 — and violations are rejected up front with a
// Status message, never half-executed.
// `--metrics-json` / `--trace` attach an obs::Sink to the run and dump
// the metrics snapshot / span timeline as JSON (README shows samples);
// the trained results are bit-identical with or without them.
// `serve` exposes the classifiers over the DESIGN.md §12 TCP protocol;
// each of the --io-threads event loops scores the requests it reads.  --model accepts weight-ROM `.hex` files or `.ldafp` model
// files (the latter carry their feature scale and provenance).  A model
// is required; pass --synthetic to opt into the load-testing fallback
// classifier instead.  --retrain-data streams a labeled CSV into the
// online retraining loop: every --retrain-after samples a candidate is
// trained, validated on the newest held-out window slice, and hot-
// promoted through the registry when it is no worse (durable versioned
// files land in --store).  SIGINT drains the server and flushes the
// metrics snapshot — including the model.* lifecycle and drift gauges —
// before exiting.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/format_policy.h"
#include "core/lda.h"
#include "core/ldafp.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "hw/rom_image.h"
#include "hw/verilog_gen.h"
#include "model/model_io.h"
#include "model/retrainer.h"
#include "net/net.h"
#include "obs/export.h"
#include "obs/sink.h"
#include "runtime/runtime.h"
#include "sched/executor.h"
#include "stats/normal.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/table.h"

namespace {

using namespace ldafp;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ldafp_cli train <train.csv> <word_length> [--k K] "
               "[--rho R] [--nodes N] [--seconds S] [--threads T] "
               "[--rom out.hex] [--save out.ldafp] "
               "[--datapath fixed|lns] "
               "[--metrics-json FILE] [--trace FILE]\n"
               "  ldafp_cli eval <rom.hex> <test.csv> [--scale S]\n"
               "  ldafp_cli sweep <data.csv> <target_error_percent> "
               "[--folds F] [--threads T] [--datapath fixed|lns] "
               "[--metrics-json FILE] "
               "[--trace FILE]\n"
               "  ldafp_cli model inspect <file.ldafp>\n"
               "  ldafp_cli serve [--port P] [--io-threads N] "
               "[--model NAME=FILE.hex|FILE.ldafp ...] [--synthetic] "
               "[--retrain-data CSV] [--retrain-after N] "
               "[--retrain-mode streaming|ldafp] "
               "[--retrain-tolerance T] [--store DIR] "
               "[--metrics-json FILE]\n"
               "\n"
               "  --threads T   worker threads for training / the sweep\n"
               "                (default: all hardware threads; results\n"
               "                are bit-identical at any thread count)\n"
               "  --datapath D  arithmetic backend the classifier deploys\n"
               "                on: fixed (QK.F two's complement, default)\n"
               "                or lns (logarithmic number system; needs\n"
               "                word lengths >= 4, scores on the scalar\n"
               "                datapath, and has no --rom form)\n"
               "  --metrics-json FILE  dump solver/search counters as JSON\n"
               "  --trace FILE         dump the span timeline as JSON\n"
               "                (observability only; trained results are\n"
               "                identical with or without these flags)\n");
  return 2;
}

double flag_value(int argc, char** argv, const char* name,
                  double fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
  }
  return fallback;
}

const char* flag_string(int argc, char** argv, const char* name) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// The --metrics-json / --trace flags as an obs::Sink: either flag
/// enables its facet; sink() stays null when neither is given, so the
/// instrumented paths cost a branch and nothing else.  write() dumps
/// the collected registry/trace as JSON after the command finishes.
struct ObsFlags {
  ObsFlags(int argc, char** argv)
      : metrics_path(flag_string(argc, argv, "--metrics-json")),
        trace_path(flag_string(argc, argv, "--trace")) {
    if (metrics_path != nullptr) sink_.metrics = &metrics_;
    if (trace_path != nullptr) sink_.tracer = &tracer_;
  }

  obs::Sink* sink() {
    return (metrics_path != nullptr || trace_path != nullptr) ? &sink_
                                                              : nullptr;
  }

  int write() {
    if (metrics_path != nullptr) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", metrics_path);
        return 1;
      }
      obs::write_metrics_json(out, metrics_.snapshot());
      std::printf("Wrote metrics to %s\n", metrics_path);
    }
    if (trace_path != nullptr) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
        return 1;
      }
      obs::write_trace_json(out, tracer_.snapshot());
      std::printf("Wrote trace (%zu spans) to %s\n", tracer_.span_count(),
                  trace_path);
    }
    return 0;
  }

  const char* metrics_path;
  const char* trace_path;

 private:
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::Sink sink_;
};

/// Parses --datapath (default: two's complement).  Returns false (after
/// printing the choices) on an unrecognized backend name.
bool datapath_flag(int argc, char** argv, fixed::DatapathKind* out) {
  *out = fixed::DatapathKind::kTwosComplement;
  const char* name = flag_string(argc, argv, "--datapath");
  if (name == nullptr) return true;
  if (fixed::parse_datapath_kind(name, out)) return true;
  std::fprintf(stderr, "--datapath expects 'fixed' or 'lns', got '%s'\n",
               name);
  return false;
}

/// Flag-combination rules for a non-default backend, as data (Status)
/// rather than scattered exits: LNS layouts need sign + >= 3 exponent
/// bits, and the hex ROM form stores QK.F grid reals that log-grid
/// (irrational) weights cannot round-trip through.
ldafp::Status validate_datapath(fixed::DatapathKind kind, int word_length,
                                bool rom_requested) {
  if (kind == fixed::DatapathKind::kTwosComplement) return {};
  if (word_length < 4) {
    return ldafp::Status::invalid(
        "--datapath lns needs a word length >= 4 "
        "(1 sign bit + >= 3 exponent bits)");
  }
  if (rom_requested) {
    return ldafp::Status::invalid(
        "--datapath lns cannot write --rom: hex ROM images hold QK.F "
        "grid values; save LNS models with --save out.ldafp instead");
  }
  return {};
}

/// The --threads flag as an executor: default 0 = all hardware threads,
/// 1 = today's single-threaded path, N > 1 = a pool of N workers.
/// Results are bit-identical at any thread count (DESIGN.md §9).
sched::Executor threads_flag(int argc, char** argv) {
  const auto threads =
      static_cast<std::size_t>(flag_value(argc, argv, "--threads", 0));
  return sched::Executor::pooled(threads);
}

int cmd_train(int argc, char** argv) {
  if (argc < 4) return usage();
  fixed::DatapathKind datapath;
  if (!datapath_flag(argc, argv, &datapath)) return 2;
  const int word_length = std::atoi(argv[3]);
  const ldafp::Status valid = validate_datapath(
      datapath, word_length, flag_string(argc, argv, "--rom") != nullptr);
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 2;
  }
  const data::LabeledDataset train = data::load_csv(argv[2]);
  const int k = static_cast<int>(flag_value(argc, argv, "--k", 2));
  const double rho = flag_value(argc, argv, "--rho", 0.9999);
  std::printf("Loaded %zu samples x %zu features\n", train.size(),
              train.dim());

  const double beta = stats::confidence_beta(rho);
  const core::TrainingSet raw = train.to_training_set();
  const core::FormatChoice choice =
      core::choose_format(raw, word_length, beta, k);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);
  std::printf("Format %s, feature scale %g (apply at inference)\n",
              choice.format.to_string().c_str(), choice.feature_scale);

  ObsFlags obs_flags(argc, argv);
  core::LdaFpOptions options;
  options.rho = rho;
  options.bnb.max_nodes = static_cast<std::size_t>(
      flag_value(argc, argv, "--nodes", 5000));
  options.bnb.max_seconds = flag_value(argc, argv, "--seconds", 60);
  options.bnb.executor = threads_flag(argc, argv);
  options.bnb.sink = obs_flags.sink();
  const core::LdaFpTrainer trainer(choice.format, options);
  const core::LdaFpResult result = trainer.train(scaled);
  if (obs_flags.write() != 0) return 1;
  if (!result.found()) {
    std::printf("No feasible classifier at this format.\n");
    return 1;
  }
  // Deploy on the requested backend: the trained QK.F grid weights are
  // re-quantized onto the LNS log grid, and all scoring below runs
  // through that datapath (scalar — the SIMD kernels are QK.F-only).
  const core::FixedClassifier tc_clf = trainer.make_classifier(result);
  const core::FixedClassifier clf =
      datapath == fixed::DatapathKind::kTwosComplement
          ? tc_clf
          : core::FixedClassifier(tc_clf.format(), tc_clf.weights_real(),
                                  tc_clf.threshold_real(), tc_clf.rounding(),
                                  tc_clf.accumulator(), datapath);
  if (datapath != fixed::DatapathKind::kTwosComplement) {
    std::printf("Datapath %s: weights re-quantized to the log grid; "
                "scoring falls back to the scalar datapath (the SIMD "
                "kernels are QK.F-only)\n",
                fixed::to_string(datapath));
  }
  std::printf("LDA-FP: cost %.6g, %zu nodes, %.2fs, status %s, gap %.3g\n",
              result.cost, result.search.nodes_processed,
              result.train_seconds, opt::to_string(result.search.status),
              result.search.gap());
  const opt::NodeStats& solver = result.search.solver_stats;
  std::printf("Solver: %llu relaxations (%llu phase-I skips), "
              "%llu Newton iterations, %llu factorizations\n",
              static_cast<unsigned long long>(solver.relaxations),
              static_cast<unsigned long long>(solver.phase1_skips),
              static_cast<unsigned long long>(solver.newton_iterations),
              static_cast<unsigned long long>(solver.factorizations));

  // Training-set error comparison against the rounded-LDA baseline.
  const auto model = core::fit_two_class_model(
      core::quantize_training_set(scaled, choice.format));
  const core::FixedClassifier tc_baseline = core::quantize_lda(
      core::fit_lda(scaled), model, beta, choice.format,
      core::LdaGainPolicy::kMaxRange);
  // The baseline deploys on the same backend, so the comparison stays
  // apples to apples.
  const core::FixedClassifier baseline =
      datapath == fixed::DatapathKind::kTwosComplement
          ? tc_baseline
          : core::FixedClassifier(
                tc_baseline.format(), tc_baseline.weights_real(),
                tc_baseline.threshold_real(), tc_baseline.rounding(),
                tc_baseline.accumulator(), datapath);
  std::printf("Training-set error: LDA-FP %.2f%% vs rounded LDA %.2f%%\n",
              100.0 * eval::evaluate(clf, train,
                                     choice.feature_scale).error(),
              100.0 * eval::evaluate(baseline, train,
                                     choice.feature_scale).error());

  if (const char* rom = flag_string(argc, argv, "--rom")) {
    hw::save_rom_image(rom, clf);
    std::printf("Wrote weight ROM image to %s\n", rom);
  }
  if (const char* save = flag_string(argc, argv, "--save")) {
    model::TrainingProvenance pv;
    pv.name = "ldafp";
    pv.feature_scale = choice.feature_scale;
    pv.rho = rho;
    pv.beta = beta;
    pv.cv_accuracy =
        1.0 - eval::evaluate(clf, train, choice.feature_scale).error();
    pv.train_seconds = result.train_seconds;
    pv.cost = result.cost;
    pv.gap = result.search.gap();
    pv.word_length = static_cast<std::uint32_t>(word_length);
    pv.nodes_processed = result.search.nodes_processed;
    pv.relaxations = solver.relaxations;
    pv.phase1_skips = solver.phase1_skips;
    pv.newton_iterations = solver.newton_iterations;
    pv.factorizations = solver.factorizations;
    model::save_model(save, model::SavedModel{clf, pv});
    std::printf("Wrote model to %s (+ %s.json metadata sidecar)\n", save,
                save);
  }
  if (const char* rtl = flag_string(argc, argv, "--verilog")) {
    // RTL + self-checking testbench with golden vectors from the first
    // training samples (scaled like inference inputs).
    std::vector<linalg::Vector> probes;
    for (std::size_t i = 0; i < std::min<std::size_t>(train.size(), 16);
         ++i) {
      linalg::Vector x = train.samples[i];
      x *= choice.feature_scale;
      probes.push_back(std::move(x));
    }
    hw::save_verilog(rtl, clf, hw::make_golden_vectors(clf, probes));
    std::printf("Wrote Verilog module + testbench to %s/\n", rtl);
  }
  return 0;
}

int cmd_eval(int argc, char** argv) {
  if (argc < 4) return usage();
  const hw::RomImage image = hw::load_rom_image(argv[2]);
  const data::LabeledDataset test = data::load_csv(argv[3]);
  const double scale = flag_value(argc, argv, "--scale", 1.0);
  const core::FixedClassifier clf = image.classifier();
  fixed::DotDiagnostics diag;
  const eval::Confusion c = eval::evaluate(clf, test, scale, &diag);
  std::printf("Format %s, %zu weights\n", image.format.to_string().c_str(),
              image.weights.size());
  std::printf("Error %.2f%% on %zu samples (A->B %zu, B->A %zu)\n",
              100.0 * c.error(), c.total(), c.a_as_b, c.b_as_a);
  std::printf("Overflow events: %d product, %d accumulator wraps, final "
              "overflow %s\n",
              diag.product_overflows, diag.accumulator_wraps,
              diag.final_overflow ? "YES" : "no");
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 4) return usage();
  const data::LabeledDataset data = data::load_csv(argv[2]);
  const double target = std::atof(argv[3]) / 100.0;
  const auto folds = static_cast<std::size_t>(
      flag_value(argc, argv, "--folds", 5));

  fixed::DatapathKind datapath;
  if (!datapath_flag(argc, argv, &datapath)) return 2;

  ObsFlags obs_flags(argc, argv);
  eval::ExperimentConfig config;
  config.word_lengths = {3, 4, 5, 6, 7, 8, 10, 12};
  config.datapath = datapath;
  if (datapath == fixed::DatapathKind::kLns) {
    // The LNS layout needs sign + >= 3 exponent bits, so the sweep
    // starts at W = 4 (validate_datapath applies the same floor).
    config.word_lengths = {4, 5, 6, 7, 8, 10, 12};
    std::printf("Datapath lns: sweeping word lengths >= 4 on the "
                "log-domain backend (scalar scoring)\n");
  }
  config.ldafp.bnb.max_nodes = 1000;
  config.ldafp.bnb.max_seconds = 30.0;
  config.ldafp.bnb.rel_gap = 1e-3;
  config.executor = threads_flag(argc, argv);
  config.sink = obs_flags.sink();
  support::Rng rng(1);
  const auto choice =
      eval::select_min_word_length(data, folds, config, target, rng);
  if (obs_flags.write() != 0) return 1;
  if (!choice.has_value()) {
    std::printf("No swept word length meets %.2f%% error.\n",
                100.0 * target);
    return 1;
  }
  std::printf("Smallest word length meeting %.2f%%: %d bits "
              "(CV error %.2f%%)\n",
              100.0 * target, choice->word_length,
              100.0 * choice->cv_error);
  return 0;
}

int cmd_model(int argc, char** argv) {
  if (argc < 4 || std::strcmp(argv[2], "inspect") != 0) return usage();
  const char* path = argv[3];
  const model::DecodeResult loaded = model::load_model(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path,
                 model::to_string(loaded.error));
    return 1;
  }
  const core::FixedClassifier& clf = loaded.model->classifier;
  const model::TrainingProvenance& pv = loaded.model->provenance;
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  support::TextTable t({"field", "value"});
  t.add_row({"name", pv.name.empty() ? "(unnamed)" : pv.name});
  t.add_row({"model_version", std::to_string(pv.model_version)});
  t.add_row({"datapath", fixed::to_string(clf.datapath_kind())});
  t.add_row({"format", clf.format().to_string()});
  t.add_row({"dim", std::to_string(clf.dim())});
  t.add_row({"rounding", fixed::to_string(clf.rounding())});
  t.add_row({"accumulator", fixed::to_string(clf.accumulator())});
  t.add_row({"threshold", num(clf.threshold_real()) + "  (raw " +
                              std::to_string(clf.threshold_raw()) + ")"});
  t.add_row({"feature_scale", num(pv.feature_scale)});
  t.add_row({"rho / beta", num(pv.rho) + " / " + num(pv.beta)});
  t.add_row({"cv_accuracy", pv.cv_accuracy < 0.0 ? "(not measured)"
                                                 : num(pv.cv_accuracy)});
  t.add_row({"train_seconds", num(pv.train_seconds)});
  t.add_row({"cost / gap", num(pv.cost) + " / " + num(pv.gap)});
  t.add_row({"word_length", std::to_string(pv.word_length)});
  t.add_row({"nodes / relaxations",
             std::to_string(pv.nodes_processed) + " / " +
                 std::to_string(pv.relaxations)});
  t.add_row({"newton / factorizations",
             std::to_string(pv.newton_iterations) + " / " +
                 std::to_string(pv.factorizations)});
  std::printf("%s", t.to_string().c_str());
  support::TextTable w({"i", "weight", "raw"});
  const linalg::Vector weights = clf.weights_real();
  for (std::size_t i = 0; i < clf.dim(); ++i) {
    w.add_row({std::to_string(i), num(weights[i]),
               std::to_string(clf.weight_words()[i])});
  }
  std::printf("%s", w.to_string().c_str());
  return 0;
}

// SIGINT latch for `serve`: the handler only flips the flag; the main
// thread notices and runs the orderly drain (signal-safe by design).
std::atomic<bool> g_interrupted{false};

void on_sigint(int) { g_interrupted.store(true); }

/// Trains the synthetic fallback model served when no --model is given:
/// a conventional quantized-LDA classifier on the paper's 3-feature
/// synthetic task (fast — no branch-and-bound — and deterministic).
core::FixedClassifier train_synthetic_fallback(int word_length,
                                               double* scale_out) {
  support::Rng rng(1);
  const data::LabeledDataset dataset = data::make_synthetic(1500, rng);
  const double beta = stats::confidence_beta(0.9999);
  const core::TrainingSet raw = dataset.to_training_set();
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

int cmd_serve(int argc, char** argv) {
  const auto port = static_cast<std::uint16_t>(
      flag_value(argc, argv, "--port", 7070));
  const auto io_threads = static_cast<std::size_t>(
      flag_value(argc, argv, "--io-threads", 1));
  const char* metrics_path = flag_string(argc, argv, "--metrics-json");

  // One registry for the whole serving process: the engine's
  // "runtime.*" block and the transport's "net.*" block bind into it,
  // so the exit snapshot covers admission, scoring, and the wire.
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;

  const char* retrain_data = flag_string(argc, argv, "--retrain-data");
  const auto retrain_after = static_cast<std::size_t>(
      flag_value(argc, argv, "--retrain-after", 64));
  const char* store_dir = flag_string(argc, argv, "--store");
  const char* retrain_mode_name =
      flag_string(argc, argv, "--retrain-mode");
  const double retrain_tolerance =
      flag_value(argc, argv, "--retrain-tolerance", 0.0);

  runtime::ModelRegistry models;
  std::string default_model;
  // The default (first) model: kept aside so the retraining loop can
  // bootstrap it through the OnlineRetrainer (registry version 1)
  // instead of a plain install.
  std::optional<core::FixedClassifier> default_clf;
  model::TrainingProvenance default_pv;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--model") != 0) continue;
    const std::string spec = argv[i + 1];
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      std::fprintf(stderr,
                   "--model expects NAME=FILE.hex or NAME=FILE.ldafp, "
                   "got %s\n",
                   spec.c_str());
      return 2;
    }
    const std::string name = spec.substr(0, eq);
    const std::string file = spec.substr(eq + 1);
    std::optional<core::FixedClassifier> clf;
    model::TrainingProvenance pv;
    const bool is_model_file =
        file.size() > 6 && file.compare(file.size() - 6, 6, ".ldafp") == 0;
    if (is_model_file) {
      const model::DecodeResult loaded = model::load_model(file);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", file.c_str(),
                     model::to_string(loaded.error));
        return 1;
      }
      clf.emplace(loaded.model->classifier);
      pv = loaded.model->provenance;
      std::printf("installed %s from %s (%s, dim %zu, feature scale %g)\n",
                  name.c_str(), file.c_str(),
                  clf->format().to_string().c_str(), clf->dim(),
                  pv.feature_scale);
      if (clf->datapath_kind() != fixed::DatapathKind::kTwosComplement) {
        std::printf("  %s datapath: scoring uses the scalar backend "
                    "(SIMD kernels are QK.F-only)\n",
                    fixed::to_string(clf->datapath_kind()));
      }
    } else {
      const hw::RomImage image = hw::load_rom_image(file);
      clf.emplace(image.classifier());
      std::printf("installed %s (%s, %zu weights)\n", name.c_str(),
                  image.format.to_string().c_str(), image.weights.size());
    }
    if (default_model.empty()) {
      default_model = name;
      default_clf = *clf;
      default_pv = pv;
      // Defer the default model's install when retraining: the
      // OnlineRetrainer bootstraps it as registry version 1 below.
      if (retrain_data != nullptr) continue;
    }
    models.install(name, std::move(*clf));
  }
  if (default_model.empty()) {
    if (!flag_present(argc, argv, "--synthetic")) {
      std::fprintf(stderr,
                   "serve needs a model: pass --model NAME=FILE.hex or "
                   "NAME=FILE.ldafp (train one with `ldafp_cli train "
                   "... --save model.ldafp`), or opt into the "
                   "load-testing fallback with --synthetic\n");
      return 2;
    }
    double scale = 1.0;
    const core::FixedClassifier clf = train_synthetic_fallback(6, &scale);
    default_model = "synthetic";
    default_clf = clf;
    default_pv.name = "synthetic";
    default_pv.feature_scale = scale;
    if (retrain_data == nullptr) models.install("synthetic", clf);
    std::printf("installed synthetic fallback (%s, feature scale %g)\n",
                clf.format().to_string().c_str(), scale);
  }

  // Online-retraining loop: labeled CSV samples stream into the
  // retrainer's window; every --retrain-after samples a candidate is
  // trained and promoted when no worse on the held-out slice.
  data::LabeledDataset feed;
  std::unique_ptr<model::OnlineRetrainer> retrainer;
  if (retrain_data != nullptr) {
    // The retrainer trains two's-complement candidates and compares
    // them against the incumbent through QK.F projections; an LNS
    // incumbent cannot seed that loop.
    if (default_clf->datapath_kind() !=
        fixed::DatapathKind::kTwosComplement) {
      std::fprintf(stderr,
                   "error: --retrain-data needs a two's-complement "
                   "default model; '%s' uses the %s datapath\n",
                   default_model.c_str(),
                   fixed::to_string(default_clf->datapath_kind()));
      return 2;
    }
    feed = data::load_csv(retrain_data);
    model::RetrainerOptions ropt;
    ropt.model_name = default_model;
    ropt.format = default_clf->format();
    ropt.mode = model::RetrainMode::kStreamingLda;
    if (retrain_mode_name != nullptr &&
        std::strcmp(retrain_mode_name, "ldafp") == 0) {
      ropt.mode = model::RetrainMode::kLdaFp;
    }
    ropt.trainer.rho = default_pv.rho > 0.0 ? default_pv.rho : 0.9999;
    ropt.trainer.rounding = default_clf->rounding();
    ropt.accuracy_tolerance = retrain_tolerance;
    ropt.window_capacity = std::max<std::size_t>(8, feed.size());
    ropt.holdout = std::max<std::size_t>(
        1, std::min<std::size_t>(128, ropt.window_capacity / 5));
    ropt.min_class_samples = 2;
    ropt.store_dir = store_dir != nullptr ? store_dir : "";
    ropt.sink = &sink;
    retrainer =
        std::make_unique<model::OnlineRetrainer>(models, ropt);
    retrainer->bootstrap(*default_clf, default_pv);
    std::printf("retraining %s from %s: %zu samples, retrain every %zu, "
                "mode %s%s%s\n",
                default_model.c_str(), retrain_data, feed.size(),
                retrain_after, model::to_string(ropt.mode),
                store_dir != nullptr ? ", store " : "",
                store_dir != nullptr ? store_dir : "");
  }

  // The event loops score through the engine's synchronous call.
  runtime::InferenceEngine engine({.sink = &sink});

  net::ServerOptions server_options;
  server_options.port = port;
  server_options.io_threads = io_threads;
  server_options.default_model = default_model;
  server_options.engine = &engine;
  server_options.registry = &models;
  server_options.sink = &sink;
  net::Server server(server_options);
  server.start();
  std::printf("serving on %s:%u (%zu io thread%s, default model \"%s\")"
              " — Ctrl-C to drain and exit\n",
              server_options.host.c_str(), server.port(), io_threads,
              io_threads == 1 ? "" : "s", default_model.c_str());

  // The feeder streams the labeled CSV into the retraining loop while
  // the server keeps taking traffic — scores into the drift detector,
  // samples into the window, a synchronous retrain every
  // --retrain-after samples.
  std::thread feeder;
  if (retrainer != nullptr) {
    feeder = std::thread([&] {
      std::size_t since_retrain = 0;
      for (std::size_t i = 0; i < feed.size() && !g_interrupted.load();
           ++i) {
        linalg::Vector x = feed.samples[i];
        x *= default_pv.feature_scale;
        if (const runtime::ModelHandle h = models.get(default_model)) {
          const core::FixedClassifier& clf = h->classifier;
          retrainer->observe_score(clf.datapath().to_real(clf.project_raw(x)));
        }
        retrainer->observe(x, feed.labels[i]);
        if (++since_retrain >= retrain_after) {
          since_retrain = 0;
          const model::RetrainOutcome outcome = retrainer->retrain_now();
          std::printf("retrain #%llu: %s (candidate %.4f vs incumbent "
                      "%.4f)%s\n",
                      static_cast<unsigned long long>(
                          retrainer->retrains()),
                      outcome.reason.c_str(), outcome.candidate_error,
                      outcome.incumbent_error,
                      outcome.promoted
                          ? (" -> v" + std::to_string(outcome.version))
                                .c_str()
                          : "");
        }
      }
      retrainer->publish_drift();
    });
  }

  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);
  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Orderly drain: stop admission at the socket, let encoded responses
  // flush, then shut the engine down, then report.
  std::printf("\ndraining...\n");
  if (feeder.joinable()) feeder.join();
  server.stop();
  engine.shutdown();
  const obs::MetricsSnapshot snapshot = engine.stats().snapshot();
  if (metrics_path != nullptr) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", metrics_path);
      return 1;
    }
    obs::write_metrics_json(out, snapshot);
    std::printf("Wrote metrics to %s\n", metrics_path);
  }
  std::printf("%s\n", obs::to_table(snapshot).c_str());
  if (retrainer != nullptr) {
    std::printf("retraining: %llu retrains, %llu promotions, "
                "%llu rollbacks (last: %s)\n",
                static_cast<unsigned long long>(retrainer->retrains()),
                static_cast<unsigned long long>(retrainer->promotions()),
                static_cast<unsigned long long>(retrainer->rollbacks()),
                retrainer->last_outcome().reason.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "train") == 0) return cmd_train(argc, argv);
    if (std::strcmp(argv[1], "eval") == 0) return cmd_eval(argc, argv);
    if (std::strcmp(argv[1], "sweep") == 0) return cmd_sweep(argc, argv);
    if (std::strcmp(argv[1], "model") == 0) return cmd_model(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
  } catch (const ldafp::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
