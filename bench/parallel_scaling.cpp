// Parallel scaling of the ldafp_sched substrate on the two paper
// workloads: LDA-FP training (parallel branch-and-bound) on the Table 1
// synthetic set and on one 80/20 split of the Table 2 BCI set, and the
// 5-fold CV sweep (the Table 2 BCI workload, parallel (word length ×
// fold) fan-out), each at 1/2/4/8 threads.
//
// Each workload runs kRepetitions times at every thread count, with the
// counts interleaved, and a speedup divides the best 1-thread time by the
// best t-thread time: on a shared host one slow run cannot swing the
// ratio.  The Spread column shows how far each count's runs scattered.
//
// Every run is checked bit-identical to the first 1-thread run before
// the table prints — the determinism contract (DESIGN.md §9) is an
// acceptance gate here, not an aspiration.  Speedups depend on the host
// core count; the identity columns must read "yes" on any machine.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
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
constexpr std::size_t kRepetitions = 3;

bool same_vector(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() && linalg::max_abs_diff(a, b) == 0.0;
}

/// Runs `run(threads)` kRepetitions times at every thread count, each
/// repetition starting one count later than the last so no count always
/// runs first; exits 1 unless every result is `same` as the first
/// 1-thread one; prints the best-of-k table.  Returns that first result.
template <typename Run, typename Same>
auto measure(const char* tag, Run run, Same same) {
  constexpr std::size_t kCounts = std::size(kThreadCounts);
  std::vector<std::vector<double>> seconds(kCounts);
  std::optional<decltype(run(std::size_t{1}))> reference;
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t k = 0; k < kCounts; ++k) {
      // The first repetition starts at 1 thread: it sets the reference.
      const std::size_t c = (k + rep) % kCounts;
      const std::size_t threads = kThreadCounts[c];
      support::WallTimer timer;
      auto result = run(threads);
      seconds[c].push_back(timer.seconds());
      std::fprintf(stderr, "  [%s] repetition %zu, %zu thread(s): %.3fs\n",
                   tag, rep + 1, threads, seconds[c].back());
      if (!reference.has_value()) {
        reference = std::move(result);
      } else if (!same(result, *reference)) {
        std::fprintf(stderr,
                     "FAIL: %zu-thread %s diverged from 1-thread\n",
                     threads, tag);
        std::exit(1);
      }
    }
  }

  support::TextTable table({"Threads", "Best (s)", "Spread", "Speedup",
                            "Bit-identical"});
  const double best_one =
      *std::min_element(seconds[0].begin(), seconds[0].end());
  for (std::size_t c = 0; c < kCounts; ++c) {
    const auto [lo, hi] =
        std::minmax_element(seconds[c].begin(), seconds[c].end());
    table.add_row({std::to_string(kThreadCounts[c]),
                   support::format_double(*lo, 3),
                   support::format_double(100.0 * (*hi - *lo) / *lo, 0) +
                       "%",
                   support::format_double(best_one / *lo, 2), "yes"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("1-thread times over %zu repetitions:", kRepetitions);
  for (const double t : seconds[0]) std::printf(" %.3f", t);
  std::printf(" s\n");
  return *reference;
}

/// LDA-FP training (node-budget anytime search) with the
/// branch-and-bound expanding nodes in parallel.
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
  const core::LdaFpResult reference = measure(
      "train",
      [&](std::size_t threads) {
        core::LdaFpOptions options = base;
        options.bnb.executor = sched::Executor::pooled(threads);
        return core::LdaFpTrainer(choice.format, options).train(scaled);
      },
      [](const core::LdaFpResult& a, const core::LdaFpResult& b) {
        return a.found() == b.found() && a.cost == b.cost &&
               a.threshold == b.threshold &&
               a.search.status == b.search.status &&
               a.search.nodes_processed == b.search.nodes_processed &&
               a.search.nodes_pruned == b.search.nodes_pruned &&
               a.search.gap() == b.search.gap() &&
               same_vector(a.weights, b.weights);
      });
  std::printf("%zu nodes at every thread count.\n\n",
              reference.search.nodes_processed);
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
  measure(
      "sweep",
      [&](std::size_t threads) {
        eval::ExperimentConfig run = config;
        run.executor = sched::Executor::pooled(threads);
        support::Rng cv_rng(17);  // same folds every run
        return eval::run_cv_sweep(dataset, 5, run, cv_rng);
      },
      [](const std::vector<eval::CvTrialResult>& a,
         const std::vector<eval::CvTrialResult>& b) {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (a[i].word_length != b[i].word_length ||
              a[i].lda_error != b[i].lda_error ||
              a[i].ldafp_error != b[i].ldafp_error ||
              a[i].max_gap != b[i].max_gap) {
            return false;
          }
        }
        return true;
      });
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Parallel scaling — ldafp_sched thread pool\n\n");
  bench_synthetic_training();
  bench_bci_training();
  bench_cv_sweep();
  std::printf("Every run bit-identical to the first 1-thread run.\n");
  return 0;
}
