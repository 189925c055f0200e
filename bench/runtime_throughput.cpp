// Serving throughput: SIMD kernels vs the scalar Datapath::dot
// fallback, and batched scoring against the per-sample loop.
//
//   $ ./runtime_throughput [--smoke] [--out FILE] [samples]
//
// Two sections over a BCI-shaped fixed-point model (42 features,
// Q2.6):
//
//  1. Kernel: the same PackedBatch is scored with the kernel backend
//     forced to scalar — every row then takes BatchScorer's
//     Datapath::dot fallback — and then on the best backend the host
//     compiled (DESIGN.md §14).  Both accumulator modes are timed; every
//     projection word and label must match the forced-scalar run and
//     the per-sample classify() reference bit for bit, or the bench
//     exits non-zero.  The full run also gates the wide-accumulator
//     SIMD speedup at >= 4x when a vector backend is active.
//
//  2. Single-thread BatchScorer at request batch sizes 1/8/64 against
//     the sequential classify() loop.
//
// `--out FILE` writes the results as JSON with the bench::write_host_header
// "host" object (see README for the schema); without it nothing is
// written.
// `--smoke` shrinks the sample count and skips the 4x gate (identity is
// still asserted); CI runs the smoke mode on every push.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "report.h"
#include "core/classifier.h"
#include "fixed/simd.h"
#include "runtime/batch_scorer.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace ldafp;
namespace simd = fixed::simd;

core::FixedClassifier make_bci_shaped_model(support::Rng& rng,
                                            fixed::AccumulatorMode acc) {
  const fixed::FixedFormat fmt(2, 6);  // 8-bit Q2.6, the Table 2 shape
  linalg::Vector w(42);
  for (std::size_t m = 0; m < w.size(); ++m) {
    w[m] = fmt.to_real(rng.uniform_int(fmt.raw_min(), fmt.raw_max()));
  }
  return core::FixedClassifier(fmt, w, 0.0625,
                               fixed::RoundingMode::kNearestEven, acc);
}

std::vector<linalg::Vector> make_traffic(std::size_t n, std::size_t dim,
                                         support::Rng& rng) {
  std::vector<linalg::Vector> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector x(dim);
    for (std::size_t m = 0; m < dim; ++m) x[m] = rng.uniform(-1.8, 1.8);
    xs.push_back(std::move(x));
  }
  return xs;
}

std::string rate_str(double samples_per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", samples_per_sec);
  return buf;
}

std::string speedup_str(double speedup) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
  return buf;
}

/// Scores the packed batch repeatedly until `min_seconds` of wall time
/// has accumulated and returns samples/sec (kernel rates are too high
/// to time with a single pass).
double measure_packed_rate(const runtime::BatchScorer& scorer,
                           const runtime::PackedBatch& batch,
                           std::vector<runtime::ScoreResult>& results,
                           double min_seconds) {
  std::size_t passes = 0;
  support::WallTimer timer;
  double elapsed = 0.0;
  do {
    scorer.score(batch, results.data());
    ++passes;
    elapsed = timer.seconds();
  } while (elapsed < min_seconds);
  return static_cast<double>(passes * batch.rows) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;  // empty: no JSON file
  long long requested = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (argv[i][0] != '-' && requested < 0) {
      requested = std::atoll(argv[i]);
      if (requested <= 0) {
        std::fprintf(stderr, "usage: %s [--smoke] [--out FILE] [samples>0]\n",
                     argv[0]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE] [samples>0]\n",
                   argv[0]);
      return 2;
    }
  }
  const std::size_t n_samples = requested > 0
                                    ? static_cast<std::size_t>(requested)
                                    : (smoke ? 20000 : 100000);
  const double min_measure_seconds = smoke ? 0.05 : 0.3;
  const simd::Backend best = simd::active_backend();

  support::Rng rng(4242);
  const core::FixedClassifier clf =
      make_bci_shaped_model(rng, fixed::AccumulatorMode::kWide);
  const auto traffic = make_traffic(n_samples, clf.dim(), rng);
  std::printf("runtime_throughput: %zu samples x %zu features, format %s, "
              "simd backend %s\n\n",
              traffic.size(), clf.dim(), clf.format().to_string().c_str(),
              simd::to_string(best));

  std::ostringstream report;
  support::JsonWriter json(report);
  json.begin_object();
  json.kv("bench", "runtime_throughput");
  json.kv("smoke", smoke);
  bench::write_host_header(json);
  json.kv("samples", static_cast<std::uint64_t>(traffic.size()));
  json.kv("dim", static_cast<std::uint64_t>(clf.dim()));
  json.kv("format", clf.format().to_string());
  json.kv("backend", simd::to_string(best));

  bool all_bit_exact = true;
  double wide_simd_speedup = 1.0;

  // ---- Section 1: kernel backends on one packed batch -----------------
  // The kernel batch is capped at 2048 rows (~0.7 MB packed) so both
  // backends run out of cache and the row measures the kernels, not the
  // host's DRAM bandwidth; the end-to-end sections below stream the full
  // traffic.
  const std::size_t kernel_rows = std::min<std::size_t>(traffic.size(), 2048);
  const std::vector<linalg::Vector> kernel_traffic(
      traffic.begin(), traffic.begin() + kernel_rows);
  support::TextTable kernel_table(
      {"kernel", "accumulator", "samples/sec", "vs scalar", "bit-exact"});
  json.kv("kernel_rows", static_cast<std::uint64_t>(kernel_rows));
  json.key("kernel");
  json.begin_array();
  for (const auto acc : {fixed::AccumulatorMode::kWide,
                         fixed::AccumulatorMode::kNarrow}) {
    support::Rng acc_rng(4242);
    const core::FixedClassifier acc_clf = make_bci_shaped_model(acc_rng, acc);
    const runtime::BatchScorer scorer(acc_clf);
    const runtime::PackedBatch batch = scorer.pack(kernel_traffic);
    std::vector<runtime::ScoreResult> scalar_results(batch.rows);
    std::vector<runtime::ScoreResult> vec_results(batch.rows);

    simd::set_backend_override(simd::Backend::kScalar);
    const double scalar_rate = measure_packed_rate(
        scorer, batch, scalar_results, min_measure_seconds);
    simd::set_backend_override(best);
    const double vec_rate = measure_packed_rate(
        scorer, batch, vec_results, min_measure_seconds);
    simd::clear_backend_override();

    // Identity: the vector run must match forced-scalar and the
    // per-sample datapath word for word.
    bool exact = true;
    for (std::size_t i = 0; i < batch.rows && exact; ++i) {
      exact = vec_results[i].projection_raw ==
                  scalar_results[i].projection_raw &&
              vec_results[i].label == scalar_results[i].label &&
              scalar_results[i].projection_raw ==
                  acc_clf.project_raw(kernel_traffic[i]);
    }
    all_bit_exact = all_bit_exact && exact;
    const double speedup = vec_rate / scalar_rate;
    if (acc == fixed::AccumulatorMode::kWide) wide_simd_speedup = speedup;

    kernel_table.add_row({std::string("scalar"), fixed::to_string(acc),
                          rate_str(scalar_rate), "1.00x", "ref"});
    kernel_table.add_row({simd::to_string(best), fixed::to_string(acc),
                          rate_str(vec_rate), speedup_str(speedup),
                          exact ? "yes" : "NO"});
    json.begin_object();
    json.kv("accumulator", fixed::to_string(acc));
    json.kv("scalar_samples_per_sec", scalar_rate);
    json.kv("simd_samples_per_sec", vec_rate);
    json.kv("speedup", speedup);
    json.kv("bit_exact", exact);
    json.end_object();
  }
  json.end_array();
  std::printf("%s\n", kernel_table.to_string().c_str());

  // ---- Section 2: end-to-end paths --------------------------------
  // Sequential reference: one classify() per sample on one thread.
  std::vector<core::Label> reference;
  reference.reserve(traffic.size());
  support::WallTimer seq_timer;
  for (const auto& x : traffic) reference.push_back(clf.classify(x));
  const double seq_seconds = seq_timer.seconds();
  const double seq_rate = static_cast<double>(traffic.size()) / seq_seconds;

  support::TextTable table(
      {"path", "batch", "samples/sec", "vs sequential", "bit-exact"});
  table.add_row({"classify() loop", "1", rate_str(seq_rate), "1.00x", "ref"});
  json.key("end_to_end");
  json.begin_array();
  json.begin_object();
  json.kv("path", "classify_loop");
  json.kv("batch", std::uint64_t{1});
  json.kv("samples_per_sec", seq_rate);
  json.kv("speedup", 1.0);
  json.kv("bit_exact", true);
  json.end_object();

  // Single-thread BatchScorer at the swept batch sizes.
  const runtime::BatchScorer scorer(clf);
  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{8},
                                       std::size_t{64}}) {
    std::vector<core::Label> labels;
    labels.reserve(traffic.size());
    runtime::PackedBatch packed;
    std::vector<runtime::ScoreResult> results;
    support::WallTimer timer;
    for (std::size_t i = 0; i < traffic.size(); i += batch_size) {
      const std::size_t n = std::min(batch_size, traffic.size() - i);
      packed.clear();
      scorer.pack_into(packed, traffic.data() + i, n);
      results.resize(n);
      scorer.score(packed, results.data());
      for (std::size_t r = 0; r < n; ++r) labels.push_back(results[r].label);
    }
    const double rate =
        static_cast<double>(traffic.size()) / timer.seconds();
    const bool exact = labels == reference;
    all_bit_exact = all_bit_exact && exact;
    table.add_row({"BatchScorer (1 thread)", std::to_string(batch_size),
                   rate_str(rate), speedup_str(rate / seq_rate),
                   exact ? "yes" : "NO"});
    json.begin_object();
    json.kv("path", "batch_scorer");
    json.kv("batch", static_cast<std::uint64_t>(batch_size));
    json.kv("samples_per_sec", rate);
    json.kv("speedup", rate / seq_rate);
    json.kv("bit_exact", exact);
    json.end_object();
  }

  json.end_array();

  std::printf("%s\n", table.to_string().c_str());

  json.kv("wide_simd_speedup", wide_simd_speedup);
  json.kv("all_bit_exact", all_bit_exact);
  json.end_object();
  if (!bench::write_report(out_path, report.str())) return 2;

  if (!all_bit_exact) {
    std::fprintf(stderr,
                 "FAIL: a scoring path diverged from the per-sample "
                 "reference (see table above)\n");
    return 1;
  }
  // Full runs gate the README claim; smoke runs (CI, any machine) only
  // assert identity.  Scalar-only builds have nothing to gate.
  if (!smoke && best != simd::Backend::kScalar && wide_simd_speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: wide-accumulator SIMD speedup %.2fx below the 4x "
                 "target\n", wide_simd_speedup);
    return 1;
  }
  return 0;
}
