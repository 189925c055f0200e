// LNS-vs-fixed-point design sweep: the Datapath-API payoff bench.
//
// For each workload (the paper's 3-feature synthetic task, the BCI-like
// 42-feature set, and the ECG beat classifier) and each word length W,
// both backends train the identical LDA-FP grid search and deploy the
// trained weights on their own arithmetic:
//
//   fixed  the paper's QK.F two's-complement MAC — power ~ W² (Sec. 5.1)
//   lns    sign + (W-1)-bit log2 magnitude, add-for-multiply MAC with a
//          Mitchell log-domain accumulator — power ~ W (no multiplier
//          array), at the cost of log-grid quantization error
//
// Errors are measured on a held-out test set through each backend's
// datapath (eval::ExperimentConfig::datapath); power comes from
// hw::PowerModel's per-backend rules.  Two comparisons are printed (and
// written as JSON with `--out FILE`, e.g. BENCH_lns.json):
//
//   iso-width      at the same W: LNS power saving vs accuracy delta
//   iso-accuracy   for each LNS row, the cheapest fixed-point W whose
//                  error is no worse; the power ratio at that matched
//                  accuracy is the number a designer actually trades on
//
// `--smoke` shrinks datasets and search budgets for CI; the row
// structure (3 workloads x 3 word lengths x 2 backends) is unchanged.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report.h"
#include "data/bci_synthetic.h"
#include "data/ecg_synthetic.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "hw/power_model.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/table.h"

namespace {

using namespace ldafp;

struct Options {
  bool smoke = false;
  std::string out_path;  // empty: no JSON file
  std::size_t synthetic_per_class = 400;
  std::size_t ecg_per_class = 300;
  std::size_t bci_trials_per_class = 70;
  std::size_t bnb_nodes = 400;
  double bnb_seconds = 20.0;
};

struct Row {
  std::string workload;
  int word_length = 0;
  fixed::DatapathKind kind = fixed::DatapathKind::kTwosComplement;
  double lda_error = 0.0;    ///< rounded-LDA baseline on this backend
  double ldafp_error = 0.0;  ///< LDA-FP deployed on this backend
  double power = 0.0;        ///< MAC power, arbitrary units
  double energy = 0.0;       ///< power x (M + 1) serial-MAC cycles
};

/// One workload's train/test pair (independent draws, fixed seeds).
struct Workload {
  std::string name;
  data::LabeledDataset train;
  data::LabeledDataset test;
};

std::vector<Workload> make_workloads(const Options& opts) {
  std::vector<Workload> out;
  {
    support::Rng train_rng(11), test_rng(12);
    out.push_back({"synthetic",
                   data::make_synthetic(opts.synthetic_per_class, train_rng),
                   data::make_synthetic(opts.synthetic_per_class, test_rng)});
  }
  {
    data::BciOptions bci;
    bci.trials_per_class = opts.bci_trials_per_class;
    support::Rng train_rng(21), test_rng(22);
    out.push_back({"bci", data::make_bci_synthetic(train_rng, bci),
                   data::make_bci_synthetic(test_rng, bci)});
  }
  {
    support::Rng train_rng(31), test_rng(32);
    out.push_back({"ecg",
                   data::make_ecg_synthetic(opts.ecg_per_class, train_rng),
                   data::make_ecg_synthetic(opts.ecg_per_class, test_rng)});
  }
  return out;
}

/// The cheapest fixed-point word length whose error <= `target`, if any.
std::optional<const Row*> cheapest_fixed_at(
    const std::vector<Row>& rows, const std::string& workload,
    double target) {
  const Row* best = nullptr;
  for (const Row& row : rows) {
    if (row.workload != workload ||
        row.kind != fixed::DatapathKind::kTwosComplement) {
      continue;
    }
    if (row.ldafp_error <= target &&
        (best == nullptr || row.power < best->power)) {
      best = &row;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best;
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
    opts.synthetic_per_class = 150;
    opts.ecg_per_class = 100;
    opts.bci_trials_per_class = 40;
    opts.bnb_nodes = 120;
    opts.bnb_seconds = 5.0;
  }

  // LNS layouts need W >= 4, so the sweep grid starts there; these are
  // also the short-word regime where the backends actually diverge.
  const std::vector<int> word_lengths = {4, 6, 8};
  const fixed::DatapathKind kinds[] = {fixed::DatapathKind::kTwosComplement,
                                       fixed::DatapathKind::kLns};
  const hw::PowerModel power_model;  // default per-backend coefficients

  const std::vector<Workload> workloads = make_workloads(opts);
  std::vector<Row> rows;
  for (const Workload& wl : workloads) {
    for (const int w : word_lengths) {
      // One trained model per (workload, W): both backends deploy the
      // identical grid weights, so every error difference below is pure
      // arithmetic, not training noise.  run_trial re-trains per call,
      // but the search is deterministic, so two calls with different
      // `datapath` share their training trajectory bit for bit.
      for (const fixed::DatapathKind kind : kinds) {
        eval::ExperimentConfig config;
        config.word_lengths = {w};
        config.datapath = kind;
        config.ldafp.bnb.max_nodes = opts.bnb_nodes;
        config.ldafp.bnb.max_seconds = opts.bnb_seconds;
        config.ldafp.bnb.rel_gap = 1e-3;
        config.executor = sched::Executor::pooled(0);
        const eval::TrialResult trial =
            eval::run_trial(wl.train, wl.test, w, config);
        Row row;
        row.workload = wl.name;
        row.word_length = w;
        row.kind = kind;
        row.lda_error = trial.lda_error;
        row.ldafp_error = trial.ldafp_error;
        row.power = power_model.power(kind, w);
        row.energy = power_model.energy_per_classification(
            kind, w, static_cast<std::int64_t>(wl.train.dim()) + 1);
        rows.push_back(row);
      }
    }
  }

  // --- iso-width table ---------------------------------------------------
  support::TextTable table({"workload", "W", "backend", "LDA err%",
                            "LDA-FP err%", "power", "energy/classif."});
  for (const Row& row : rows) {
    table.add_row({row.workload, std::to_string(row.word_length),
                   fixed::to_string(row.kind),
                   support::format_double(100.0 * row.lda_error, 2),
                   support::format_double(100.0 * row.ldafp_error, 2),
                   support::format_double(row.power, 1),
                   support::format_double(row.energy, 0)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  // --- iso-accuracy Pareto comparison ------------------------------------
  // For each LNS row: the cheapest fixed-point design no less accurate,
  // and the resulting power ratio.  ratio > 1 means the LNS design wins
  // power at matched (or better) accuracy.
  struct Pareto {
    const Row* lns;
    const Row* fixed_match;  ///< nullptr: no fixed W in the grid matches
    double ratio = 0.0;
  };
  std::vector<Pareto> pareto;
  std::size_t lns_wins = 0;
  for (const Row& row : rows) {
    if (row.kind != fixed::DatapathKind::kLns) continue;
    Pareto p{&row, nullptr, 0.0};
    if (const auto match =
            cheapest_fixed_at(rows, row.workload, row.ldafp_error)) {
      p.fixed_match = *match;
      p.ratio = p.fixed_match->power / row.power;
      if (p.ratio > 1.0) ++lns_wins;
    }
    pareto.push_back(p);
  }
  support::TextTable iso({"workload", "LNS W", "LNS err%", "fixed W match",
                          "fixed power", "LNS power", "power ratio"});
  for (const Pareto& p : pareto) {
    iso.add_row(
        {p.lns->workload, std::to_string(p.lns->word_length),
         support::format_double(100.0 * p.lns->ldafp_error, 2),
         p.fixed_match != nullptr
             ? std::to_string(p.fixed_match->word_length)
             : "(none <= this err)",
         p.fixed_match != nullptr
             ? support::format_double(p.fixed_match->power, 1)
             : "-",
         support::format_double(p.lns->power, 1),
         p.fixed_match != nullptr ? support::format_double(p.ratio, 2)
                                  : "-"});
  }
  std::printf("\nIso-accuracy comparison (ratio > 1: LNS wins power at "
              "matched accuracy):\n");
  std::fputs(iso.to_string().c_str(), stdout);
  std::printf("\nLNS wins power-at-iso-accuracy on %zu of %zu rows.\n",
              lns_wins, pareto.size());

  std::ostringstream report;
  support::JsonWriter json(report);
  json.begin_object();
  json.kv("bench", "lns_sweep");
  json.kv("smoke", opts.smoke);
  json.key("rows");
  json.begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.kv("workload", row.workload);
    json.kv("word_length", static_cast<std::int64_t>(row.word_length));
    json.kv("datapath", fixed::to_string(row.kind));
    json.kv("lda_error", row.lda_error);
    json.kv("ldafp_error", row.ldafp_error);
    json.kv("power", row.power);
    json.kv("energy_per_classification", row.energy);
    json.end_object();
  }
  json.end_array();
  json.key("iso_accuracy");
  json.begin_array();
  for (const Pareto& p : pareto) {
    json.begin_object();
    json.kv("workload", p.lns->workload);
    json.kv("lns_word_length",
            static_cast<std::int64_t>(p.lns->word_length));
    json.kv("lns_error", p.lns->ldafp_error);
    json.kv("lns_power", p.lns->power);
    if (p.fixed_match != nullptr) {
      json.kv("fixed_word_length",
              static_cast<std::int64_t>(p.fixed_match->word_length));
      json.kv("fixed_power", p.fixed_match->power);
      json.kv("power_ratio", p.ratio);
    } else {
      json.kv("fixed_word_length", static_cast<std::int64_t>(-1));
    }
    json.end_object();
  }
  json.end_array();
  json.kv("lns_iso_accuracy_wins", static_cast<std::uint64_t>(lns_wins));
  json.end_object();
  if (!bench::write_report(opts.out_path, report.str())) return 1;
  return 0;
}
