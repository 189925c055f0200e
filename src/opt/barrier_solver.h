// Log-barrier interior-point solver for ConvexProblem.
//
// Implements the classic two-phase barrier method (Boyd & Vandenberghe,
// ch. 11), which is how we solve the paper's convex relaxation (Eq. 25):
//   phase I  — minimize the max constraint violation s over (w, s) to find
//              a strictly feasible start (or prove infeasibility),
//   phase II — minimize t·wᵀQw − Σ log(−gᵢ(w)) with t increased
//              geometrically until the duality gap m/t is below tolerance.
//
// The certified lower bound returned with each solve is
// objective − gap_margin, where gap_margin covers the barrier duality gap
// m/t plus the residual Newton decrement; branch-and-bound pruning uses
// that bound, never the raw primal value.
//
// Hot-path design (DESIGN.md §10): a caller-owned SolverWorkspace holds
// every Newton-loop buffer, so repeated solves over the same problem
// shape (the branch-and-bound inner loop) perform zero steady-state heap
// allocations; a strictly feasible warm start skips phase I entirely.
#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/convex_problem.h"
#include "support/error.h"

namespace ldafp::opt {

/// Outcome of a barrier solve.
enum class SolveStatus {
  kOptimal,        ///< converged to tolerance
  kInfeasible,     ///< phase I proved no strictly feasible point exists
  kIterationLimit, ///< Newton/outer iteration budget exhausted
};

/// Short display name of a status.
const char* to_string(SolveStatus status);

/// Tuning knobs.  Defaults are sized for the paper's problems
/// (dimension <= a few hundred, tens of constraints).
struct BarrierOptions {
  double gap_tol = 1e-7;       ///< stop when m/t falls below this
  double initial_t = 1.0;      ///< first barrier parameter
  /// First barrier parameter when a strictly feasible warm start skipped
  /// phase I.  Warm seeds (a parent node's relaxation optimum) are
  /// already near-optimal, so early low-t centering stages would only
  /// drag the iterate away and back; starting higher skips them.  The
  /// certificate is unaffected — bounds depend only on the final duality
  /// gap.  Effective value is max(initial_t, warm_initial_t).
  double warm_initial_t = 1e6;
  double mu = 20.0;            ///< barrier parameter growth factor
  int max_newton_per_stage = 80;
  int max_total_newton = 2000;
  double newton_tol = 1e-10;   ///< half squared Newton decrement
  double feasibility_margin = 1e-9;  ///< strictness required of phase I
  /// Interval widths below this are inflated before solving so the box
  /// interior is non-empty; inflation only enlarges the feasible set, so
  /// lower bounds remain valid.
  double min_box_width = 1e-9;

  /// Checks every tolerance/budget for validity; called once per solve
  /// entry (solve / find_strictly_feasible).
  Status validate() const;
};

/// Argument validation for solve(): the warm start, when present, must
/// match the problem dimension and be finite.  Exposed so callers can
/// pre-check a seed without try/catch; solve() raises a non-ok status
/// as InvalidArgumentError.
Status validate_warm_start(const ConvexProblem& problem,
                           const std::optional<linalg::Vector>& warm_start);

/// Result of a barrier solve.
struct BarrierResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  linalg::Vector x;            ///< best (strictly feasible) point found
  double objective = 0.0;      ///< xᵀQx at x
  double lower_bound = 0.0;    ///< certified lower bound on the optimum
  int newton_iterations = 0;   ///< Newton steps, both phases combined
  int factorizations = 0;      ///< Cholesky attempts (jitter retries incl.)
  int line_search_trials = 0;  ///< backtracking trial points, both phases
  bool phase1_skipped = false; ///< warm start was strictly feasible
  double duality_gap = 0.0;    ///< m/t at exit
};

/// Reusable scratch memory for the solver's Newton loops.  One workspace
/// per thread: solve() sizes it to the problem's shape (allocating only
/// when the shape actually changes), after which every Newton iteration —
/// Hessian assembly, factorization, triangular solves, line search —
/// runs without touching the heap.  Contents are meaningless between
/// solves; never share one workspace between concurrent solves.
struct SolverWorkspace {
  /// Ensures capacity for dimension n with k SOC constraints.  No-op
  /// (and allocation-free) when the shape already matches.
  void resize(std::size_t n, std::size_t socs);

  // Phase II buffers (dimension n).
  linalg::Matrix hess, factor;
  linalg::Vector grad, dx, w, cand;
  // Phase I buffers (dimension n+1 for the (w, s) system).
  linalg::Matrix hess1, factor1;
  linalg::Vector grad1, dz;
  /// One SOC constraint evaluated at a point: Σⱼw, the root
  /// sqrt(wᵀΣⱼw + eps) and the residual gⱼ(w).
  struct Cone {
    linalg::Vector sigma_w;
    double root = 0.0;
    double residual = 0.0;
  };
  // Per-SOC evaluations at the iterate (`cones`) and at phase II's latest
  // line-search trial point (`trial_cones`).  Accepting a trial swaps the
  // two, so the next Hessian assembly reuses the trial's evaluations
  // instead of recomputing them.  solve() tracks which ones are current
  // itself; nothing here is trusted across solve() calls.  `probe` takes
  // one-off evaluations (residual checks, phase I line search).
  std::vector<Cone> cones, trial_cones;
  Cone probe;
  linalg::Vector soc_grad;
};

/// The solver.  Stateless apart from options; safe to reuse.
class BarrierSolver {
 public:
  BarrierSolver() = default;
  explicit BarrierSolver(BarrierOptions options) : options_(options) {}

  const BarrierOptions& options() const { return options_; }

  /// Solves the problem.  `warm_start`, when given, must match the
  /// problem dimension and be finite (throws InvalidArgumentError
  /// otherwise); when it is strictly feasible, phase I is skipped.
  /// `workspace`, when given, supplies all Newton-loop scratch memory —
  /// pass one workspace per thread to make repeated same-shape solves
  /// allocation-free.  The problem must have a box (every LDA-FP
  /// subproblem does).
  BarrierResult solve(const ConvexProblem& problem,
                      const std::optional<linalg::Vector>& warm_start =
                          std::nullopt,
                      SolverWorkspace* workspace = nullptr) const;

  /// Phase I alone: returns a strictly feasible point or nullopt.
  std::optional<linalg::Vector> find_strictly_feasible(
      const ConvexProblem& problem) const;

 private:
  BarrierOptions options_;
};

}  // namespace ldafp::opt
