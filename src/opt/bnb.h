// Generic best-first branch-and-bound over interval boxes.
//
// This is the skeleton of the paper's Algorithm 1: iteratively partition
// the variable box, estimate lower/upper bounds per sub-box, keep the set
// of live boxes whose lower bound can still beat the incumbent, and stop
// when every live box is small (or a node/time budget runs out — the
// "additional heuristics" hook the paper mentions).
//
// The framework is problem-agnostic: the LDA-FP trainer plugs in through
// the BnbProblem interface (bounding via the convex relaxation, branching
// on grid-aligned splits, exact enumeration of terminal boxes).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "linalg/vector.h"
#include "obs/sink.h"
#include "opt/box.h"
#include "sched/executor.h"
#include "support/error.h"

namespace ldafp::opt {

/// Deterministic solver-effort counters carried by every bound() result
/// and summed — on the control thread, over committed expansions only —
/// into BnbResult::solver_stats.  Speculative expansions that are never
/// committed do not contribute, so the totals are bit-identical at any
/// thread count (unlike raw telemetry counters, which also see
/// speculative extras).
struct NodeStats {
  std::uint64_t relaxations = 0;       ///< barrier solves performed
  std::uint64_t phase1_skips = 0;      ///< solves warm-started past phase I
  std::uint64_t newton_iterations = 0; ///< Newton steps, both phases
  std::uint64_t factorizations = 0;    ///< Cholesky attempts
  std::uint64_t line_search_trials = 0;  ///< trial points, both phases
  /// Centering stages that ran out of Newton steps (both phases).
  std::uint64_t stage_limit_hits = 0;
  /// Incumbent-polish moves costed exactly (those the O(1) screen let by).
  std::uint64_t polish_exact_evals = 0;

  NodeStats& operator+=(const NodeStats& o) {
    relaxations += o.relaxations;
    phase1_skips += o.phase1_skips;
    newton_iterations += o.newton_iterations;
    factorizations += o.factorizations;
    line_search_trials += o.line_search_trials;
    stage_limit_hits += o.stage_limit_hits;
    polish_exact_evals += o.polish_exact_evals;
    return *this;
  }
};

/// Adds the counters into `registry` under the shared "solver.*" names
/// — the one reporting path for solver effort: BnbSolver::run publishes
/// its result through this when a sink is attached, and benches/tools
/// publish stored NodeStats through the same call before exporting
/// (obs/export.h), so every surface agrees on names and shape.
void publish(const NodeStats& stats, obs::MetricsRegistry& registry,
             const obs::Labels& labels = {});

/// What a problem reports about one box.
struct NodeBounds {
  /// Valid lower bound on the objective over the box (may be +inf when
  /// the box is infeasible — the node is then pruned).
  double lower = -std::numeric_limits<double>::infinity();
  /// Optional feasible point found while bounding, with its exact
  /// objective value; used to update the incumbent.
  std::optional<linalg::Vector> candidate;
  double candidate_value = std::numeric_limits<double>::infinity();
  /// Optimal point of the node's convex relaxation, when one was solved.
  /// The driver hands it back (clamped by the problem) as the
  /// BoundContext for this node's children — the tree-wide warm start.
  std::optional<linalg::Vector> relaxation_point;
  /// Solver effort behind this bound.
  NodeStats stats;
};

/// Extra context the driver passes to bound(): the parent node's
/// relaxation optimum (null at the root or when warm starts are
/// disabled).  The pointee is fixed before the node is published to
/// workers and never mutated afterwards, so reading it is race-free.
/// Determinism note: the parent point is itself a pure function of the
/// parent box and *its* context, inductively rooted at the cold root
/// solve — so bound(box, ctx) stays a pure function of the node's
/// position in the tree, which is what keeps parallel runs bit-identical
/// (DESIGN.md §9/§10).
struct BoundContext {
  const linalg::Vector* parent_relaxation = nullptr;
};

/// Problem plug-in interface for the solver.
///
/// Concurrency contract: when BnbOptions::executor is parallel, the
/// solver evaluates bound() / is_terminal() / solve_terminal() /
/// branch() speculatively from pool workers — concurrently, and
/// possibly for boxes that sequential execution would never expand.
/// Implementations must therefore be thread-safe and functionally pure
/// (the returned values may depend only on the box argument, never on
/// call order or hidden mutable state; internal counters need atomics).
/// Under the default inline executor calls arrive strictly one at a
/// time, exactly as before.
class BnbProblem {
 public:
  virtual ~BnbProblem() = default;

  /// Bounds the objective over `box` (relaxation + rounding heuristic).
  /// `ctx` carries the parent's relaxation optimum for warm-starting; a
  /// problem may ignore it.  The result must stay a pure function of
  /// (box, ctx) — see BoundContext.
  virtual NodeBounds bound(const Box& box, const BoundContext& ctx) = 0;

  /// True when `box` is small enough to finish by exact enumeration.
  virtual bool is_terminal(const Box& box) const = 0;

  /// Exactly minimizes over the discrete feasible points inside a
  /// terminal `box`; returns the best candidate (or none if empty).
  virtual NodeBounds solve_terminal(const Box& box) = 0;

  /// Splits a non-terminal box into two children.
  virtual std::pair<Box, Box> branch(const Box& box) = 0;
};

/// Search budgets.  Exhausting a budget yields an anytime result with a
/// reported optimality gap instead of a proved optimum.
struct BnbOptions {
  std::size_t max_nodes = 200000;
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Stop when best_value - global_lower_bound <= rel_gap * |best_value|
  /// (or <= an absolute floor of 1e-9, so a zero incumbent still stops).
  double rel_gap = 1e-6;
  /// Execution resource for node expansions.  The default inline
  /// executor reproduces the single-threaded search exactly.  A pooled
  /// executor expands frontier nodes speculatively on the workers while
  /// one control thread commits results in the sequential order, so the
  /// incumbent, certified gap, status, and node counts are bit-identical
  /// to the sequential search at any thread count (see DESIGN.md §9;
  /// wall-clock time budgets remain wall-clock, so kTimeLimit runs stop
  /// at a machine-dependent node in either mode).
  sched::Executor executor;
  /// Pass each node's relaxation optimum to its children's bound() calls
  /// (BoundContext), letting the problem warm-start phase II directly.
  /// Off means every bound() sees a null context — the cold baseline.
  /// Either setting is bit-identical across thread counts; the two
  /// settings may differ from each other in low-order bits of interior
  /// relaxation bounds (Newton trajectories differ), though incumbents
  /// are grid-rounded and typically agree exactly.
  bool warm_start_relaxations = true;
  /// Observability seam (null = zero-overhead no-op, like the inline
  /// executor default).  With a sink attached, run() wraps the search
  /// in a "bnb.run" span and publishes the result's counters/gauges
  /// into the metrics registry on exit.  Purely observational: results
  /// are bit-identical with or without a sink at any thread count.
  obs::Sink* sink = nullptr;

  /// Checks every budget/tolerance for validity; called once by
  /// BnbSolver::run before the search starts.
  Status validate() const;
};

/// Why the search stopped.
enum class BnbStatus {
  kOptimal,     ///< gap closed to tolerance
  kNodeLimit,   ///< max_nodes exhausted
  kTimeLimit,   ///< max_seconds exhausted
  kNoSolution,  ///< no feasible point exists in the root box
};

/// Short display name of a status.
const char* to_string(BnbStatus status);

/// Search outcome and statistics.
struct BnbResult {
  BnbStatus status = BnbStatus::kNoSolution;
  std::optional<linalg::Vector> best_point;
  double best_value = std::numeric_limits<double>::infinity();
  /// Global lower bound over the root box at exit.
  double lower_bound = -std::numeric_limits<double>::infinity();
  std::size_t nodes_processed = 0;
  std::size_t nodes_pruned = 0;
  /// Solver effort summed over committed expansions (thread-invariant).
  NodeStats solver_stats;
  double seconds = 0.0;

  /// Absolute optimality gap at exit.
  double gap() const { return best_value - lower_bound; }
};

/// Publishes a finished search into `registry`: "bnb.*" counters (runs,
/// nodes processed/pruned) and gauges (best value, lower bound, gap,
/// seconds) plus the "solver.*" NodeStats counters.  The result struct
/// stays the deterministic value record; this is its one bridge onto
/// the registry snapshot/export path.
void publish(const BnbResult& result, obs::MetricsRegistry& registry,
             const obs::Labels& labels = {});

/// Best-first branch-and-bound driver.
class BnbSolver {
 public:
  BnbSolver() = default;
  explicit BnbSolver(BnbOptions options) : options_(options) {}

  const BnbOptions& options() const { return options_; }

  /// Runs the search from `root`.  `initial_incumbent`, when provided,
  /// seeds the upper bound (point + exact value) — the warm-start
  /// heuristic.  Validates the options (throws InvalidArgumentError on
  /// a non-ok BnbOptions::validate()) and, when options.sink is set,
  /// traces the run and publishes the result's counters on exit.
  BnbResult run(BnbProblem& problem, const Box& root,
                const std::optional<std::pair<linalg::Vector, double>>&
                    initial_incumbent = std::nullopt) const;

 private:
  BnbResult run_search(
      BnbProblem& problem, const Box& root,
      const std::optional<std::pair<linalg::Vector, double>>&
          initial_incumbent) const;

  BnbOptions options_;
};

}  // namespace ldafp::opt
