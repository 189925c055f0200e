// Parallel scaling of the ldafp_sched substrate on the two paper
// workloads: LDA-FP training (parallel branch-and-bound) on the Table 1
// synthetic set and on one 80/20 split of the Table 2 BCI set, and the
// 5-fold CV sweep (the Table 2 BCI workload, parallel (word length ×
// fold) fan-out), each at 1/2/4/8 threads.
//
// Every parallel run is checked bit-identical to the 1-thread reference
// before its row prints — the determinism contract (DESIGN.md §9) is an
// acceptance gate here, not an aspiration.  Speedups depend on the host
// core count; the identity columns must read "yes" on any machine.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/format_policy.h"
#include "core/ldafp.h"
#include "data/bci_synthetic.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "sched/executor.h"
#include "stats/normal.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace ldafp;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

bool same_vector(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() && linalg::max_abs_diff(a, b) == 0.0;
}

/// One LDA-FP training run per thread count (node-budget anytime
/// search) with the branch-and-bound expanding nodes in parallel.
void bench_training(const std::string& title,
                    const data::LabeledDataset& train, int word_length,
                    const core::LdaFpOptions& base) {
  const core::TrainingSet raw = train.to_training_set();
  const double beta = stats::confidence_beta(base.rho);
  const core::FormatChoice choice =
      core::choose_format(raw, word_length, beta, 2);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);

  std::printf("%s\n", title.c_str());
  std::fflush(stdout);
  core::LdaFpResult reference;
  double reference_seconds = 0.0;
  support::TextTable table(
      {"Threads", "Train (s)", "Speedup", "Nodes", "Bit-identical"});
  for (const std::size_t threads : kThreadCounts) {
    core::LdaFpOptions options = base;
    options.bnb.executor = sched::Executor::pooled(threads);
    const core::LdaFpTrainer trainer(choice.format, options);
    support::WallTimer timer;
    const core::LdaFpResult result = trainer.train(scaled);
    const double seconds = timer.seconds();

    bool identical = true;
    if (threads == 1) {
      reference = result;
      reference_seconds = seconds;
    } else {
      identical = result.found() == reference.found() &&
                  result.cost == reference.cost &&
                  result.threshold == reference.threshold &&
                  result.search.status == reference.search.status &&
                  result.search.nodes_processed ==
                      reference.search.nodes_processed &&
                  result.search.nodes_pruned ==
                      reference.search.nodes_pruned &&
                  result.search.gap() == reference.search.gap() &&
                  same_vector(result.weights, reference.weights);
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: %zu-thread training diverged from 1-thread\n",
                     threads);
        std::exit(1);
      }
    }
    table.add_row({std::to_string(threads),
                   support::format_double(seconds, 3),
                   support::format_double(reference_seconds / seconds, 2),
                   std::to_string(result.search.nodes_processed),
                   identical ? "yes" : "NO"});
    std::fprintf(stderr, "  [train] %zu thread(s): %.3fs\n", threads,
                 seconds);
  }
  std::printf("%s\n", table.to_string().c_str());
}

/// Table 1 workload: the synthetic set at W=6, 1500-node budget.
void bench_synthetic_training() {
  support::Rng rng(20140601);
  const auto train = data::make_synthetic(1000, rng);
  core::LdaFpOptions options;
  options.bnb.max_nodes = 1500;
  options.bnb.rel_gap = 1e-4;
  bench_training("LDA-FP training, Table 1 synthetic workload (" +
                     std::to_string(train.size()) +
                     " samples, W=6, 1500-node budget)",
                 train, 6, options);
}

/// Table 2 workload: one 80/20 split of the BCI set at W=8, 400-node
/// budget, with perfbench's bci training settings (700 trials per class,
/// max_step_pow 5; its max-range baseline does not enter LDA-FP).
void bench_bci_training() {
  support::Rng recording(16);
  data::BciOptions bci;
  bci.trials_per_class = 700;
  const auto dataset = data::make_bci_synthetic(recording, bci);
  support::Rng partition(17);
  const data::Split split = data::stratified_split(dataset, 0.8, partition);
  core::LdaFpOptions options;
  options.bnb.max_nodes = 400;
  options.bnb.rel_gap = 1e-3;
  options.local_search_options.max_step_pow = 5;
  bench_training("LDA-FP training, Table 2 BCI workload (" +
                     std::to_string(split.train.size()) + " samples, " +
                     std::to_string(dataset.dim()) +
                     " features, W=8, 400-node budget)",
                 split.train, 8, options);
}

/// Table 2 workload: the full 5-fold CV sweep over word lengths 3-8 with
/// the (word length × fold) grid fanned over the pool.
void bench_cv_sweep() {
  support::Rng rng(16);
  const auto dataset = data::make_bci_synthetic(rng);

  eval::ExperimentConfig config;
  config.word_lengths = {3, 4, 5, 6, 7, 8};
  config.ldafp.bnb.max_nodes = 400;
  config.ldafp.bnb.max_seconds = 30.0;
  config.ldafp.bnb.rel_gap = 1e-3;
  config.ldafp.local_search_options.max_step_pow = 5;
  config.lda_gain = core::LdaGainPolicy::kMaxRange;

  std::printf("5-fold CV sweep, Table 2 BCI workload "
              "(%zu features, word lengths 3-8, 30 trials)\n",
              dataset.dim());
  std::fflush(stdout);
  std::vector<eval::CvTrialResult> reference;
  double reference_seconds = 0.0;
  support::TextTable table(
      {"Threads", "Sweep (s)", "Speedup", "Bit-identical"});
  for (const std::size_t threads : kThreadCounts) {
    eval::ExperimentConfig run = config;
    run.executor = sched::Executor::pooled(threads);
    support::Rng cv_rng(17);  // same folds every thread count
    support::WallTimer timer;
    const auto rows = eval::run_cv_sweep(dataset, 5, run, cv_rng);
    const double seconds = timer.seconds();

    bool identical = true;
    if (threads == 1) {
      reference = rows;
      reference_seconds = seconds;
    } else {
      identical = rows.size() == reference.size();
      for (std::size_t i = 0; identical && i < rows.size(); ++i) {
        identical = rows[i].word_length == reference[i].word_length &&
                    rows[i].lda_error == reference[i].lda_error &&
                    rows[i].ldafp_error == reference[i].ldafp_error &&
                    rows[i].max_gap == reference[i].max_gap;
      }
      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: %zu-thread sweep diverged from 1-thread\n",
                     threads);
        std::exit(1);
      }
    }
    table.add_row({std::to_string(threads),
                   support::format_double(seconds, 3),
                   support::format_double(reference_seconds / seconds, 2),
                   identical ? "yes" : "NO"});
    std::fprintf(stderr, "  [sweep] %zu thread(s): %.3fs\n", threads,
                 seconds);
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  std::printf("Parallel scaling — ldafp_sched thread pool\n\n");
  bench_synthetic_training();
  bench_bci_training();
  bench_cv_sweep();
  std::printf("All parallel rows bit-identical to the 1-thread "
              "reference.\n");
  return 0;
}
