// Model lifecycle benchmark: serialization, streaming statistics, and
// hot promotion under concurrent scoring traffic.
//
//   serialize  encode/decode latency of the versioned .ldafp image in
//              memory across word lengths, plus full save/load through
//              the filesystem (binary + JSON sidecar).  Every decode is
//              verified bit-identical to the encoded classifier — this
//              doubles as a round-trip audit at benchmark volume.
//   stream     OnlineRetrainer::observe() throughput: ring-window write
//              plus rank-1 Welford update per labeled sample, and
//              observe_score() throughput through the drift detector.
//   lifecycle  reader threads score through registry handles while a
//              writer feeds labeled samples and kicks background
//              retrains; promotions hot-swap versions mid-read.
//
// Accounting is exact, in the serve_load.cpp style: every round-trip
// bit-identical, every read scored exactly once, reader-observed
// versions monotone, and final registry version == bootstrap +
// promotions.  Non-zero exit on any violation.  `--out FILE` writes the
// results as JSON; `--smoke` runs reduced counts for CI.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "model/model_io.h"
#include "model/retrainer.h"
#include "runtime/registry.h"
#include "sched/executor.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace ldafp;
using linalg::Vector;

struct Options {
  bool smoke = false;
  std::string out_path;  // empty: no JSON file
  std::size_t encode_iters = 20000;
  std::size_t file_iters = 200;
  std::size_t stream_samples = 200000;
  std::size_t readers = 4;
  std::size_t reads_per_reader = 50000;
  std::size_t feed_samples = 20000;
  std::size_t retrain_every = 1000;
};

/// Deterministic grid-exact classifier at `fmt`, dimension `dim`.
core::FixedClassifier make_classifier(const fixed::FixedFormat& fmt,
                                      std::size_t dim) {
  const std::int64_t span = fmt.raw_max() - fmt.raw_min() + 1;
  Vector w(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    w[i] = fmt.to_real(fmt.raw_min() +
                       static_cast<std::int64_t>(i * 7919 + 13) % span);
  }
  return core::FixedClassifier(fmt, w,
                               fmt.to_real(fmt.raw_min() + 9973 % span));
}

bool bit_identical(const core::FixedClassifier& a,
                   const core::FixedClassifier& b) {
  return a.threshold_raw() == b.threshold_raw() &&
         a.weight_words() == b.weight_words();
}

struct SerializeRow {
  int word_length = 0;
  std::size_t dim = 0;
  std::size_t bytes = 0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  std::uint64_t mismatches = 0;
};

SerializeRow bench_serialize(const fixed::FixedFormat& fmt, std::size_t dim,
                             std::size_t iters) {
  SerializeRow row;
  row.word_length = fmt.word_length();
  row.dim = dim;
  model::SavedModel m{make_classifier(fmt, dim), {}};
  m.provenance.name = "bench";
  m.provenance.word_length = static_cast<std::uint32_t>(fmt.word_length());

  std::vector<std::uint8_t> bytes = model::encode_model(m);
  row.bytes = bytes.size();
  support::WallTimer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    bytes = model::encode_model(m);
  }
  row.encode_us = timer.seconds() / static_cast<double>(iters) * 1e6;

  timer.reset();
  for (std::size_t i = 0; i < iters; ++i) {
    const model::DecodeResult r = model::decode_model(bytes);
    if (!r.ok() || !bit_identical(r.model->classifier, m.classifier)) {
      ++row.mismatches;
    }
  }
  row.decode_us = timer.seconds() / static_cast<double>(iters) * 1e6;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  if (opts.smoke) {
    opts.encode_iters = 2000;
    opts.file_iters = 40;
    opts.stream_samples = 20000;
    opts.readers = 2;
    opts.reads_per_reader = 5000;
    opts.feed_samples = 4000;
    opts.retrain_every = 500;
  }
  std::uint64_t failures = 0;

  // --- serialize: encode/decode latency across word lengths -------------
  const std::size_t dim = 16;
  std::vector<SerializeRow> rows;
  for (const fixed::FixedFormat fmt :
       {fixed::FixedFormat(2, 3), fixed::FixedFormat(3, 4),
        fixed::FixedFormat(5, 6)}) {
    rows.push_back(bench_serialize(fmt, dim, opts.encode_iters));
    failures += rows.back().mismatches;
  }

  // Filesystem round trip (binary + sidecar) at the middle format.
  const std::filesystem::path tmp_dir =
      std::filesystem::temp_directory_path() / "ldafp_model_bench";
  std::filesystem::create_directories(tmp_dir);
  const std::string file_path = (tmp_dir / "bench.ldafp").string();
  model::SavedModel file_model{make_classifier(fixed::FixedFormat(3, 4), dim),
                               {}};
  file_model.provenance.name = "bench";
  support::WallTimer timer;
  for (std::size_t i = 0; i < opts.file_iters; ++i) {
    model::save_model(file_path, file_model);
  }
  const double save_us =
      timer.seconds() / static_cast<double>(opts.file_iters) * 1e6;
  timer.reset();
  for (std::size_t i = 0; i < opts.file_iters; ++i) {
    const model::DecodeResult r = model::load_model(file_path);
    if (!r.ok() ||
        !bit_identical(r.model->classifier, file_model.classifier)) {
      ++failures;
    }
  }
  const double load_us =
      timer.seconds() / static_cast<double>(opts.file_iters) * 1e6;
  std::filesystem::remove_all(tmp_dir);

  // --- stream: observe() and observe_score() throughput -----------------
  constexpr std::size_t kStreamDim = 8;
  double observe_mps = 0.0;
  double score_mps = 0.0;
  {
    runtime::ModelRegistry registry;
    model::RetrainerOptions ropts;
    ropts.model_name = "stream";
    ropts.window_capacity = 4096;
    ropts.holdout = 256;
    model::OnlineRetrainer retrainer(registry, ropts);
    support::Rng rng(21);
    std::vector<Vector> samples;
    samples.reserve(opts.stream_samples);
    for (std::size_t i = 0; i < opts.stream_samples; ++i) {
      Vector x(kStreamDim);
      const double mean = (i % 2 == 0) ? 1.0 : -1.0;
      for (std::size_t m = 0; m < kStreamDim; ++m) {
        x[m] = rng.gaussian(mean, 0.5);
      }
      samples.push_back(std::move(x));
    }
    timer.reset();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      retrainer.observe(samples[i], (i % 2 == 0) ? core::Label::kClassA
                                                 : core::Label::kClassB);
    }
    observe_mps =
        static_cast<double>(samples.size()) / timer.seconds() / 1e6;
    timer.reset();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      retrainer.observe_score(samples[i][0]);
    }
    score_mps = static_cast<double>(samples.size()) / timer.seconds() / 1e6;
  }

  // --- lifecycle: hot promotion under concurrent scoring ----------------
  std::uint64_t lifecycle_reads = 0;
  std::uint64_t lifecycle_promotions = 0;
  std::uint64_t lifecycle_retrains = 0;
  double reads_per_sec = 0.0;
  bool monotone_ok = true;
  bool accounting_ok = true;
  {
    constexpr std::size_t kDim = 3;
    runtime::ModelRegistry registry;
    model::RetrainerOptions ropts;
    ropts.model_name = "live";
    ropts.format = fixed::FixedFormat(3, 3);
    ropts.window_capacity = 1024;
    ropts.holdout = 128;
    ropts.min_class_samples = 16;
    ropts.accuracy_tolerance = 1.0;  // every attempt promotes
    ropts.executor = sched::Executor::pooled(2);
    model::OnlineRetrainer retrainer(registry, ropts);
    retrainer.bootstrap(core::FixedClassifier(
        fixed::FixedFormat(3, 3), Vector{0.5, 0.5, 0.5}, 0.0));

    std::atomic<std::uint64_t> scored{0};
    std::atomic<bool> monotone{true};
    std::vector<std::thread> readers;
    readers.reserve(opts.readers);
    support::WallTimer lifecycle_timer;
    for (std::size_t r = 0; r < opts.readers; ++r) {
      readers.emplace_back([&, r] {
        support::Rng rng(5000 + r);
        std::uint64_t last_version = 0;
        Vector x(kDim);
        for (std::size_t i = 0; i < opts.reads_per_reader; ++i) {
          const runtime::ModelHandle handle = registry.get("live");
          if (handle == nullptr || handle->version < last_version) {
            monotone.store(false);
            return;
          }
          last_version = handle->version;
          const double mean = (i % 2 == 0) ? 1.0 : -1.0;
          for (std::size_t m = 0; m < kDim; ++m) {
            x[m] = rng.gaussian(mean, 0.3);
          }
          (void)handle->classifier.classify(x);
          scored.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    support::Rng feed_rng(99);
    for (std::size_t i = 0; i < opts.feed_samples; ++i) {
      const core::Label truth =
          (i % 2 == 0) ? core::Label::kClassA : core::Label::kClassB;
      Vector x(kDim);
      const double mean = truth == core::Label::kClassA ? 1.0 : -1.0;
      for (std::size_t m = 0; m < kDim; ++m) {
        x[m] = feed_rng.gaussian(mean, 0.3);
      }
      retrainer.observe(x, truth);
      if ((i + 1) % opts.retrain_every == 0) retrainer.retrain_async();
    }
    for (std::thread& t : readers) t.join();
    const double elapsed = lifecycle_timer.seconds();
    retrainer.wait();

    lifecycle_reads = scored.load();
    lifecycle_promotions = retrainer.promotions();
    lifecycle_retrains = retrainer.retrains();
    reads_per_sec = static_cast<double>(lifecycle_reads) / elapsed;
    monotone_ok = monotone.load();
    const runtime::ModelHandle latest = registry.get("live");
    accounting_ok =
        monotone_ok &&
        lifecycle_reads == opts.readers * opts.reads_per_reader &&
        latest != nullptr &&
        latest->version == 1 + lifecycle_promotions &&
        lifecycle_promotions >= 1;
    if (!accounting_ok) ++failures;
  }

  // --- report -----------------------------------------------------------
  support::TextTable table({"metric", "value"});
  for (const SerializeRow& row : rows) {
    char label[64];
    std::snprintf(label, sizeof(label), "encode W=%d (us)",
                  row.word_length);
    table.add_row({label, support::format_double(row.encode_us, 2)});
    std::snprintf(label, sizeof(label), "decode W=%d (us)",
                  row.word_length);
    table.add_row({label, support::format_double(row.decode_us, 2)});
  }
  table.add_row({"save to disk (us)", support::format_double(save_us, 1)});
  table.add_row({"load from disk (us)", support::format_double(load_us, 1)});
  table.add_row({"observe (Msamples/s)",
                 support::format_double(observe_mps, 2)});
  table.add_row({"observe_score (Msamples/s)",
                 support::format_double(score_mps, 2)});
  table.add_row({"lifecycle reads/s",
                 support::format_double(reads_per_sec, 0)});
  table.add_row({"lifecycle promotions",
                 std::to_string(lifecycle_promotions)});
  table.add_row({"lifecycle retrains", std::to_string(lifecycle_retrains)});
  table.add_row({"accounting", accounting_ok ? "exact" : "VIOLATED"});
  std::fputs(table.to_string().c_str(), stdout);

  std::ostringstream report;
  support::JsonWriter json(report);
  json.begin_object();
  json.kv("bench", "model_lifecycle");
  json.kv("smoke", opts.smoke);
  json.key("serialize");
  json.begin_array();
  for (const SerializeRow& row : rows) {
    json.begin_object();
    json.kv("word_length", static_cast<std::int64_t>(row.word_length));
    json.kv("dim", static_cast<std::uint64_t>(row.dim));
    json.kv("bytes", static_cast<std::uint64_t>(row.bytes));
    json.kv("encode_us", row.encode_us);
    json.kv("decode_us", row.decode_us);
    json.kv("mismatches", row.mismatches);
    json.end_object();
  }
  json.end_array();
  json.key("file_io");
  json.begin_object();
  json.kv("save_us", save_us);
  json.kv("load_us", load_us);
  json.end_object();
  json.key("streaming");
  json.begin_object();
  json.kv("observe_msamples_per_sec", observe_mps);
  json.kv("observe_score_msamples_per_sec", score_mps);
  json.end_object();
  json.key("lifecycle");
  json.begin_object();
  json.kv("reads", lifecycle_reads);
  json.kv("reads_per_sec", reads_per_sec);
  json.kv("promotions", lifecycle_promotions);
  json.kv("retrains", lifecycle_retrains);
  json.kv("monotone_versions", monotone_ok);
  json.kv("accounting_exact", accounting_ok);
  json.end_object();
  json.kv("failures", failures);
  json.end_object();
  if (!bench::write_report(opts.out_path, report.str())) return 1;

  if (failures != 0) {
    std::fprintf(stderr, "FAILED: %llu accounting violations\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }
  return 0;
}
