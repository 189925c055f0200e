// The obs contract the API redesign rests on: attaching a sink is
// side-effect-free with respect to computed results.  Training with a
// metrics registry + tracer attached must produce bit-identical weights,
// cost, threshold, bounds, and node counts to a null sink, at any thread
// count (the PR-2/PR-3 determinism guarantees must survive the
// instrumentation).  Runs under the `obs` label, so TSan also checks the
// sink-attached parallel search.
#include <gtest/gtest.h>

#include <optional>

#include "core/format_policy.h"
#include "core/ldafp.h"
#include "data/synthetic.h"
#include "linalg/ops.h"
#include "obs/sink.h"
#include "opt/barrier_solver.h"
#include "sched/executor.h"
#include "stats/normal.h"
#include "support/rng.h"

namespace ldafp {
namespace {

struct Prepared {
  core::FormatChoice choice;
  core::TrainingSet scaled;
};

Prepared scaled_synthetic() {
  support::Rng rng(17);
  const core::TrainingSet raw =
      data::make_synthetic(240, rng).to_training_set();
  const double beta = stats::confidence_beta(0.9999);
  core::FormatChoice choice = core::choose_format(raw, 6, beta, 2);
  core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);
  return {choice, std::move(scaled)};
}

core::LdaFpResult train_once(const core::TrainingSet& scaled,
                             const core::FormatChoice& choice,
                             std::size_t threads, obs::Sink* sink) {
  core::LdaFpOptions options;
  options.bnb.max_nodes = 200;
  options.bnb.rel_gap = 1e-3;
  options.bnb.executor = sched::Executor::pooled(threads);
  options.bnb.sink = sink;
  const core::LdaFpTrainer trainer(choice.format, options);
  return trainer.train(scaled);
}

void expect_identical(const core::LdaFpResult& a,
                      const core::LdaFpResult& b) {
  ASSERT_EQ(a.found(), b.found());
  EXPECT_EQ(linalg::max_abs_diff(a.weights, b.weights), 0.0);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.search.status, b.search.status);
  EXPECT_EQ(a.search.best_value, b.search.best_value);
  EXPECT_EQ(a.search.lower_bound, b.search.lower_bound);
  EXPECT_EQ(a.search.nodes_processed, b.search.nodes_processed);
  EXPECT_EQ(a.search.nodes_pruned, b.search.nodes_pruned);
  EXPECT_EQ(a.search.solver_stats.relaxations,
            b.search.solver_stats.relaxations);
  EXPECT_EQ(a.search.solver_stats.newton_iterations,
            b.search.solver_stats.newton_iterations);
}

TEST(SinkIdentityTest, TrainingBitIdenticalWithSinkAcrossThreadCounts) {
  const Prepared prep = scaled_synthetic();
  const core::FormatChoice& choice = prep.choice;
  const core::TrainingSet& scaled = prep.scaled;

  // Null-sink single-thread run is the reference.
  const core::LdaFpResult reference =
      train_once(scaled, choice, 1, nullptr);
  ASSERT_TRUE(reference.found());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    obs::Sink sink{&metrics, &tracer};
    const core::LdaFpResult instrumented =
        train_once(scaled, choice, threads, &sink);
    expect_identical(reference, instrumented);

    // The sink actually observed the run...
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counter_value("bnb.runs"), 1u);
    EXPECT_EQ(snap.counter_value("bnb.nodes_processed"),
              reference.search.nodes_processed);
    EXPECT_EQ(snap.counter_value("solver.relaxations"),
              reference.search.solver_stats.relaxations);
    // bound() fills the line-search and polish counters, and they are as
    // thread-invariant as the rest.
    EXPECT_GT(reference.search.solver_stats.line_search_trials, 0u);
    EXPECT_GT(reference.search.solver_stats.polish_exact_evals, 0u);
    EXPECT_EQ(snap.counter_value("solver.line_search_trials"),
              reference.search.solver_stats.line_search_trials);
    EXPECT_EQ(snap.counter_value("solver.polish_exact_evals"),
              reference.search.solver_stats.polish_exact_evals);
    EXPECT_GT(tracer.span_count(), 0u);

    // ...and the null-sink run at the same thread count agrees too.
    expect_identical(reference, train_once(scaled, choice, threads,
                                           nullptr));
  }
}

TEST(SinkIdentityTest, PublishedCountersMatchDeterministicStructs) {
  // publish() is a pure bridge: feeding the same BnbResult into two
  // registries yields identical counters, and counters accumulate
  // across publishes.
  const Prepared prep = scaled_synthetic();
  const core::LdaFpResult result =
      train_once(prep.scaled, prep.choice, 1, nullptr);

  obs::MetricsRegistry once;
  opt::publish(result.search, once);
  EXPECT_EQ(once.snapshot().counter_value("bnb.nodes_processed"),
            result.search.nodes_processed);
  EXPECT_EQ(once.snapshot().counter_value("solver.newton_iterations"),
            result.search.solver_stats.newton_iterations);

  obs::MetricsRegistry twice;
  opt::publish(result.search, twice);
  opt::publish(result.search, twice);
  EXPECT_EQ(twice.snapshot().counter_value("bnb.runs"), 2u);
  EXPECT_EQ(twice.snapshot().counter_value("bnb.nodes_processed"),
            2 * result.search.nodes_processed);
}

#ifdef LDAFP_COUNT_ALLOCS

// The no-op-sink overhead contract (DESIGN.md §11): with a null sink the
// instrumented solver paths stay on the zero-steady-state-allocation
// budget PR 3 established — the seam adds branches, never allocations.
TEST(SinkIdentityTest, NullSinkWarmSolvePathStaysAllocationFree) {
  using linalg::Matrix;
  using linalg::Vector;
  opt::ConvexProblem p(Matrix{{2.0, 0.4}, {0.4, 1.0}});
  p.set_box(opt::Box(2, opt::Interval{-1.0, 1.0}));
  p.add_linear({Vector{-1.0, -1.0}, -0.5});

  const opt::BarrierSolver solver;
  opt::SolverWorkspace ws;
  const opt::BarrierResult first = solver.solve(p, std::nullopt, &ws);
  ASSERT_EQ(first.status, opt::SolveStatus::kOptimal);

  const std::optional<Vector> warm(first.x);
  const std::uint64_t before =
      linalg::linalg_alloc_count().load(std::memory_order_relaxed);
  const opt::BarrierResult second = solver.solve(p, warm, &ws);
  const std::uint64_t spent =
      linalg::linalg_alloc_count().load(std::memory_order_relaxed) - before;
  EXPECT_EQ(second.status, opt::SolveStatus::kOptimal);
  // Same boundary-copy budget as tests/linalg/alloc_count_test.cpp: the
  // added validate() calls and null-sink instrumentation contribute 0.
  EXPECT_LE(spent, 4u);
}

#else

TEST(SinkIdentityTest, NullSinkAllocCheckUnavailable) {
  GTEST_SKIP() << "configure with -DLDAFP_COUNT_ALLOCS=ON to enable";
}

#endif  // LDAFP_COUNT_ALLOCS

}  // namespace
}  // namespace ldafp
