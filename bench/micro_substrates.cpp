// google-benchmark micro-benchmarks of the substrates: fixed-point MAC,
// dense factorizations, the barrier solver, and branch-and-bound node
// throughput.  These track the cost model behind the budget choices in
// the table benches.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/format_policy.h"
#include "core/ldafp.h"
#include "data/synthetic.h"
#include "fixed/dot.h"
#include "linalg/lu.h"
#include "linalg/ops.h"
#include "opt/barrier_solver.h"
#include "stats/normal.h"
#include "support/rng.h"

namespace {

using namespace ldafp;

/// n raw QK.F words of uniform values in [-1, 1].
std::vector<std::int64_t> random_words(const fixed::FixedFormat& fmt,
                                       std::size_t n, support::Rng& rng) {
  std::vector<std::int64_t> words(n);
  for (std::int64_t& word : words) {
    word = fmt.quantize_saturate(rng.uniform(-1.0, 1.0),
                                 fixed::RoundingMode::kNearestEven);
  }
  return words;
}

void BM_FixedDotWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fixed::FixedFormat fmt(2, 6);
  support::Rng rng(1);
  const auto wq = random_words(fmt, n, rng);
  const auto xq = random_words(fmt, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixed::dot_datapath_raw(wq.data(), xq.data(), n, fmt,
                                fixed::RoundingMode::kNearestEven,
                                fixed::AccumulatorMode::kWide));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FixedDotWide)->Arg(3)->Arg(42)->Arg(256);

void BM_FixedDotNarrow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const fixed::FixedFormat fmt(2, 6);
  support::Rng rng(2);
  const auto wq = random_words(fmt, n, rng);
  const auto xq = random_words(fmt, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixed::dot_datapath_raw(wq.data(), xq.data(), n, fmt,
                                fixed::RoundingMode::kNearestEven,
                                fixed::AccumulatorMode::kNarrow));
  }
}
BENCHMARK(BM_FixedDotNarrow)->Arg(42);

void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(3);
  const linalg::Matrix a = linalg::random_spd(n, 0.1, 10.0, rng);
  // The barrier solver's kernel, refactoring a fresh copy each time (the
  // copy reuses the buffer's capacity, as the solver's workspace does).
  linalg::Matrix factor = a;
  for (auto _ : state) {
    factor = a;
    benchmark::DoNotOptimize(linalg::cholesky_factor_in_place(factor));
  }
}
BENCHMARK(BM_Cholesky)->Arg(3)->Arg(16)->Arg(42)->Arg(128);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(4);
  const linalg::Matrix a = linalg::random_gaussian_matrix(n, n, rng);
  linalg::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.gaussian();
  for (auto _ : state) {
    const linalg::Lu lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(42);

void BM_BarrierSolveBoxQp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(5);
  const linalg::Matrix q = linalg::random_spd(n, 0.5, 5.0, rng);
  opt::ConvexProblem problem(q);
  problem.set_box(opt::Box(n, opt::Interval{-1.0, 1.0}));
  problem.add_linear({linalg::Vector(n, 1.0), 0.5});
  const opt::BarrierSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem));
  }
}
BENCHMARK(BM_BarrierSolveBoxQp)->Arg(3)->Arg(16)->Arg(42);

void BM_LdaFpTrainSynthetic(benchmark::State& state) {
  support::Rng rng(6);
  const auto dataset = data::make_synthetic(1000, rng);
  const core::TrainingSet raw = dataset.to_training_set();
  const double beta = stats::confidence_beta(0.9999);
  const core::FormatChoice choice = core::choose_format(
      raw, static_cast<int>(state.range(0)), beta, 2);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);
  core::LdaFpOptions options;
  options.bnb.max_nodes = 200;
  options.bnb.max_seconds = 5.0;
  const core::LdaFpTrainer trainer(choice.format, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(scaled));
  }
}
BENCHMARK(BM_LdaFpTrainSynthetic)->Arg(4)->Arg(6)->Unit(
    benchmark::kMillisecond);

}  // namespace
