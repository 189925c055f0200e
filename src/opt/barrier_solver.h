// Log-barrier interior-point solver for ConvexProblem.
//
// Implements the classic two-phase barrier method (Boyd & Vandenberghe,
// ch. 11), which is how we solve the paper's convex relaxation (Eq. 25).
// Both phases run one barrier, φ(w, shift) = −Σ log(shift − gᵢ(w)) plus
// the box logs, with one evaluator, one Newton assembly and one line
// search:
//   phase I  — minimize t·s + φ(w, s) over the lifted (w, s), driving the
//              max constraint violation s below zero to find a strictly
//              feasible start (or prove infeasibility; B&V §11.4),
//   phase II — minimize t·wᵀQw + φ(w, 0) with t increased geometrically
//              until the duality gap m/t is below tolerance.
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
// The line search is directional: every quadratic form is expanded along
// the Newton step once per step, so a backtracking trial costs O(1) per
// row and per cone plus the O(n) box logs.
#pragma once

#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/convex_problem.h"
#include "support/error.h"

namespace ldafp::opt {

/// The solver's constants, sized for the paper's problems (dimension <= a
/// few hundred, tens of constraints).
namespace barrier {
inline constexpr double kGapTol = 1e-7;   ///< stop when m/t falls below this
inline constexpr double kInitialT = 1.0;  ///< first barrier parameter
/// First barrier parameter when a strictly feasible warm start skipped
/// phase I.  Warm seeds (a parent node's relaxation optimum) are already
/// near-optimal, so early low-t centering stages would only drag the
/// iterate away and back; starting higher skips them.  The certificate is
/// unaffected — bounds depend only on the final duality gap.
inline constexpr double kWarmInitialT = 1e6;
inline constexpr double kMu = 20.0;  ///< barrier parameter growth factor
inline constexpr int kMaxNewtonPerStage = 80;
inline constexpr int kMaxTotalNewton = 2000;  ///< per phase
inline constexpr double kNewtonTol = 1e-10;   ///< half squared decrement
inline constexpr double kFeasibilityMargin = 1e-9;  ///< phase I strictness
/// Interval widths below this are inflated before solving so the box
/// interior is non-empty; inflation only enlarges the feasible set, so
/// lower bounds remain valid.
inline constexpr double kMinBoxWidth = 1e-9;
}  // namespace barrier

/// Outcome of a barrier solve.
enum class SolveStatus {
  kOptimal,        ///< converged to tolerance
  kInfeasible,     ///< phase I proved no strictly feasible point exists
  kIterationLimit, ///< Newton/outer iteration budget exhausted
};

/// Short display name of a status.
const char* to_string(SolveStatus status);

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
  /// Centering stages, both phases, that ran all kMaxNewtonPerStage
  /// steps without centering (a jammed stage).
  int stage_limit_hits = 0;
  bool phase1_skipped = false; ///< warm start was strictly feasible
  double duality_gap = 0.0;    ///< m/t at exit
};

/// A quadratic form xᵀAx along the line x = w + α·d, kept as A·w, A·d
/// and the scalars wᵀAw, wᵀAd and dᵀAd, so that any point of the line
/// costs O(1): (w+αd)ᵀA(w+αd) = wᵀAw + α(2wᵀAd + α dᵀAd).  A must be
/// symmetric.  The buffers must already have the dimension of w.
struct DirectionalForm {
  linalg::Vector aw, ad;  ///< A·w and A·d
  double quad = 0.0;      ///< wᵀAw
  double cross = 0.0;     ///< wᵀAd
  double curv = 0.0;      ///< dᵀAd

  /// Forms A·w and wᵀAw afresh (O(n²)), with the direction set to 0.
  void load(const linalg::Matrix& a, const linalg::Vector& w);
  /// Sets the direction d: A·d and dᵀAd (O(n²)), wᵀAd from A·w (O(n)).
  void set_direction(const linalg::Matrix& a, const linalg::Vector& d);
  /// (w+αd)ᵀA(w+αd) from the cached terms.
  double at(double alpha) const {
    return quad + alpha * (2.0 * cross + alpha * curv);
  }
  /// Moves the base point to `moved` = w + αd: A·w by one axpy (O(n)),
  /// then wᵀAw re-read from it, so the scalar never drifts from the
  /// vector.
  void advance(double alpha, const linalg::Vector& moved);
};

/// Reusable scratch memory for the solver's Newton loops.  One workspace
/// per thread: solve() sizes it to the problem's shape (allocating only
/// when the shape actually changes), after which every Newton iteration —
/// Hessian assembly, factorization, triangular solves, line search —
/// runs without touching the heap.  Contents are meaningless between
/// solves; never share one workspace between concurrent solves.
struct SolverWorkspace {
  /// Ensures capacity for `problem`'s shape: its dimension, linear rows,
  /// SOC cones and distinct Σ.  No-op (and allocation-free) when the
  /// shape already matches.
  void resize(const ConvexProblem& problem);

  // Both phases (dimension n): the iterate, the w-gradient, the step in w.
  linalg::Vector w, grad, dx;
  // Phase II's Newton system (n × n).
  linalg::Matrix hess, factor;
  // Phase I's Newton system in the lifted (w, s) (dimension n+1).
  linalg::Matrix hess1, factor1;
  linalg::Vector grad1, dz;
  /// The quadratic forms along the current step: forms[0] is the
  /// objective's Q, forms[1 + k] the structure's distinct Σ number k.
  std::vector<DirectionalForm> forms;
  /// One SOC cone along the step: cᵀw, cᵀd, and its gradient at w.
  struct Cone {
    linalg::Vector grad;
    double cw = 0.0;
    double cd = 0.0;
  };
  std::vector<Cone> cones;
  /// One linear row along the step: aᵀw and aᵀd.
  struct Row {
    double aw = 0.0;
    double ad = 0.0;
  };
  std::vector<Row> rows;
  /// Newton-assembly scratch: per distinct Σ, its weight in the Hessian
  /// and that of the rank-1 term (Σw)(Σw)ᵀ; and the rank-1 terms c·v·vᵀ
  /// (vector, coefficient).
  struct SigmaWeight {
    double scale = 0.0;
    double outer = 0.0;
  };
  std::vector<SigmaWeight> sigma_weight;
  struct Rank1 {
    const double* v = nullptr;
    double c = 0.0;
  };
  std::vector<Rank1> rank1;
};

/// The solver.  Stateless; safe to reuse and to share between threads.
class BarrierSolver {
 public:
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
};

}  // namespace ldafp::opt
