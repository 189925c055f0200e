#include "opt/barrier_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/ops.h"
#include "support/error.h"

namespace ldafp::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Box with every interval inflated to at least `min_width` (centered), so
/// the strict interior is non-empty.  Enlarging the box only relaxes the
/// problem, keeping lower bounds valid.
Box inflate_box(const Box& box, double min_width) {
  Box out = box;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].width() < min_width) {
      const double mid = out[i].mid();
      out[i].lo = mid - 0.5 * min_width;
      out[i].hi = mid + 0.5 * min_width;
    }
  }
  return out;
}

using Cone = SolverWorkspace::Cone;

/// Evaluates SOC constraint `s` at w into `out`; Σw lands in the cone's
/// own buffer, so repeated evaluations stay off the heap.
void eval_soc(const SocConstraint& s, const linalg::Vector& w, Cone& out) {
  const double quad =
      std::max(linalg::sym_matvec_quad(s.sigma, w, out.sigma_w), 0.0);
  out.root = std::sqrt(quad + s.eps);
  out.residual = s.beta * out.root + linalg::dot(s.c, w) - s.d;
}

/// Gradient of the SOC residual from an evaluated cone, into `g`.
void soc_gradient(const SocConstraint& s, const Cone& e, linalg::Vector& g) {
  g = e.sigma_w;
  g *= s.beta / e.root;
  g += s.c;
}

/// Adds (grad grad')/r² + Hg/r to `hess`, where r = shift - residual is
/// the cone's barrier margin and Hg is the SOC residual Hessian.
void add_soc_barrier_hessian(const SocConstraint& s, const Cone& e,
                             const linalg::Vector& grad, double r,
                             linalg::Matrix& hess) {
  const std::size_t n = grad.size();
  const linalg::Vector& sigma_w = e.sigma_w;
  const double inv_r = 1.0 / r;
  const double inv_r2 = inv_r * inv_r;
  const double a = s.beta / e.root * inv_r;               // Σ scale
  const double b = s.beta / (e.root * e.root * e.root) * inv_r;  // rank-1
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      hess(i, j) += grad[i] * grad[j] * inv_r2 + a * s.sigma(i, j) -
                    b * sigma_w[i] * sigma_w[j];
    }
  }
}

/// Adds (a a')/r² to `hess` for a linear constraint with margin r.
void add_linear_barrier_hessian(const linalg::Vector& a, double r,
                                linalg::Matrix& hess) {
  const double inv_r2 = 1.0 / (r * r);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0.0) continue;
    for (std::size_t j = 0; j < a.size(); ++j) {
      hess(i, j) += a[i] * a[j] * inv_r2;
    }
  }
}

/// Solves H dx = -g into `dx` with escalating diagonal jitter, using
/// `factor` as factorization scratch.  Returns the number of Cholesky
/// attempts (retries included); allocation-free.
int newton_direction(const linalg::Matrix& hess, const linalg::Vector& grad,
                     linalg::Matrix& factor, linalg::Vector& dx) {
  const std::size_t n = hess.rows();
  const double scale = std::max(hess.norm_max(), 1.0);
  const double max_jitter = 1e-2 * scale;
  double jitter = 1e-12 * scale;
  int attempts = 0;
  while (true) {
    factor = hess;
    for (std::size_t i = 0; i < n; ++i) factor(i, i) += jitter;
    ++attempts;
    if (linalg::cholesky_factor_in_place(factor)) break;
    if (jitter >= max_jitter) {
      throw ldafp::NumericalError(
          "barrier: newton system not positive definite at max jitter");
    }
    jitter *= 10.0;
    if (jitter > max_jitter) jitter = max_jitter;
  }
  dx = grad;
  linalg::cholesky_solve_in_place(factor, dx);
  dx *= -1.0;
  return attempts;
}

// ---------------------------------------------------------------------------
// The log barrier, shared by both phases.  Over the linear and SOC rows gᵢ
// and the (inflated) box,
//   φ(w, shift) = −Σ log(shift − gᵢ(w)) − Σ log(w − lo) − Σ log(hi − w).
// Phase II minimizes t·wᵀQw + φ(w, 0) over w; phase I minimizes
// t·s + φ(w, s) over the lifted (w, s) (Boyd & Vandenberghe §11.4).  With
// shift 0, `0.0 − g` is `−g` exactly, so phase II's arithmetic is that of
// the plain barrier.
// ---------------------------------------------------------------------------

/// The barrier method of one solve() call.  Evaluations already made at
/// the iterate ws.w are reused bit for bit: ws.cones (valid for any t and
/// shift) and the barrier-augmented value (valid within one centering
/// stage of one phase).  Their validity lives here, never in the
/// workspace, so a workspace left over from another problem is never
/// trusted.
class Barrier {
 public:
  Barrier(const ConvexProblem& problem, const Box& box, SolverWorkspace& ws,
          BarrierResult& result)
      : p_(problem), box_(box), ws_(ws), result_(result) {}

  /// Starts phase II at w when w is strictly feasible (its cones then
  /// become current); false leaves ws.w untouched.
  bool start_at(const linalg::Vector& w) {
    if (logs(w, 0.0, ws_.cones) == kInf) return false;
    ws_.w = w;
    cones_current_ = true;
    return true;
  }

  /// Phase I from the box center.  True leaves a strictly feasible point
  /// in ws.w; false means none was found within the Newton budget
  /// (treated as infeasible by the caller, matching the certified-prune
  /// semantics).
  bool phase1() {
    linalg::Vector& w = ws_.w;
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = box_[i].mid();
    cones_current_ = false;
    const std::size_t rows = p_.linear().size() + p_.soc().size();
    if (rows == 0) return true;  // box interior is all we need

    lifted_ = true;
    // Slack above the worst violation keeps every log argument positive.
    // The box residuals are <= 0 at the center; only linear/SOC matter.
    double s = p_.max_residual(w) + 1.0;
    double t = barrier::kInitialT;
    int newton = 0;
    while (true) {
      value_current_ = false;
      for (int iter = 0; iter < barrier::kMaxNewtonPerStage &&
                         newton < barrier::kMaxTotalNewton;
           ++iter) {
        ++newton;
        ++result_.newton_iterations;
        // Early success: comfortably below zero violation.
        if (s < -10.0 * barrier::kFeasibilityMargin &&
            p_.max_residual(w) < -barrier::kFeasibilityMargin) {
          return true;
        }
        if (!newton_step(t, s)) break;
      }
      // Converged for this t: feasible iff s is negative.
      if (p_.max_residual(w) < -barrier::kFeasibilityMargin) return true;
      if (static_cast<double>(rows) / t <= barrier::kGapTol ||
          newton >= barrier::kMaxTotalNewton) {
        return false;  // s* >= 0 within tolerance: nothing strictly feasible
      }
      t *= barrier::kMu;
    }
  }

  /// Phase II from the strictly feasible ws.w, starting at parameter t.
  /// Sets the result's duality gap; kIterationLimit when the Newton budget
  /// ran out before the gap closed.
  SolveStatus phase2(double t) {
    lifted_ = false;
    const auto m = static_cast<double>(p_.constraint_count());
    double unused_s = 0.0;
    int newton = 0;
    bool out_of_budget = false;
    while (true) {
      value_current_ = false;
      for (int iter = 0; iter < barrier::kMaxNewtonPerStage; ++iter) {
        if (newton >= barrier::kMaxTotalNewton) {
          out_of_budget = true;
          break;
        }
        ++newton;
        ++result_.newton_iterations;
        if (!newton_step(t, unused_s)) break;  // centered or stalled
      }
      result_.duality_gap = m / t;
      if (out_of_budget) return SolveStatus::kIterationLimit;
      if (result_.duality_gap <= barrier::kGapTol) return SolveStatus::kOptimal;
      t *= barrier::kMu;
    }
  }

 private:
  /// φ(w, shift), or +inf when some margin is not positive.  Each cone's
  /// evaluation lands in `cones`; when the result is finite they are all
  /// current for w.
  double logs(const linalg::Vector& w, double shift,
              std::vector<Cone>& cones) const {
    double phi = 0.0;
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      const double r =
          shift - (linalg::dot(p_.linear()[i].a, w) - p_.linear_rhs(i));
      if (r <= 0.0) return kInf;
      phi -= std::log(r);
    }
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      eval_soc(p_.soc()[j], w, cones[j]);
      const double r = shift - cones[j].residual;
      if (r <= 0.0) return kInf;
      phi -= std::log(r);
    }
    for (std::size_t m = 0; m < box_.size(); ++m) {
      const double lo_gap = w[m] - box_[m].lo;
      const double hi_gap = box_[m].hi - w[m];
      if (lo_gap <= 0.0 || hi_gap <= 0.0) return kInf;
      phi -= std::log(lo_gap) + std::log(hi_gap);
    }
    return phi;
  }

  /// The barrier-augmented objective at (w, s): t·s + φ(w, s) in phase I,
  /// t·wᵀQw + φ(w, 0) in phase II; +inf outside the domain.
  double value(double t, const linalg::Vector& w, double s,
               std::vector<Cone>& cones) const {
    const double phi = logs(w, lifted_ ? s : 0.0, cones);
    if (phi == kInf) return kInf;
    return t * (lifted_ ? s : p_.objective(w)) + phi;
  }

  /// Adds a shifted row's terms to phase I's s-row and s-column: the row
  /// with gradient `g` and margin r contributes −1/r to ∂f/∂s, 1/r² to
  /// ∂²f/∂s² and −g/r² to ∂²f/∂w∂s.
  static void add_s_terms(const linalg::Vector& g, double r, double& grad_s,
                          linalg::Matrix& hess) {
    const std::size_t n = g.size();
    const double inv = 1.0 / r;
    const double inv2 = inv * inv;
    grad_s -= inv;
    for (std::size_t i = 0; i < n; ++i) {
      hess(i, n) -= g[i] * inv2;
      hess(n, i) -= g[i] * inv2;
    }
    hess(n, n) += inv2;
  }

  /// One damped Newton step at parameter t from (ws.w, s).  False when
  /// the iterate is already centered or the line search stalled.
  bool newton_step(double t, double& s) {
    linalg::Vector& w = ws_.w;
    linalg::Vector& grad = ws_.grad;
    const std::size_t n = w.size();
    const double shift = lifted_ ? s : 0.0;

    // Gradient and Hessian of f in w, into phase II's n × n system or the
    // leading block of phase I's (n+1) × (n+1) one.
    linalg::Matrix& hess = lifted_ ? ws_.hess1 : ws_.hess;
    double grad_s = t;  // phase I's ∂f/∂s
    if (lifted_) {
      grad.fill(0.0);
      std::fill_n(hess.data(), (n + 1) * (n + 1), 0.0);
    } else {
      linalg::sym_matvec_quad(p_.objective_matrix(), w, grad);
      grad *= 2.0 * t;
      hess = p_.objective_matrix();
      hess *= 2.0 * t;
    }
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      const linalg::Vector& a = p_.linear()[i].a;
      const double r = shift - (linalg::dot(a, w) - p_.linear_rhs(i));
      grad.axpy(1.0 / r, a);
      add_linear_barrier_hessian(a, r, hess);
      if (lifted_) add_s_terms(a, r, grad_s, hess);
    }
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      const SocConstraint& soc = p_.soc()[j];
      Cone& e = ws_.cones[j];
      if (!cones_current_) eval_soc(soc, w, e);
      const double r = shift - e.residual;
      soc_gradient(soc, e, ws_.soc_grad);
      grad.axpy(1.0 / r, ws_.soc_grad);
      add_soc_barrier_hessian(soc, e, ws_.soc_grad, r, hess);
      if (lifted_) add_s_terms(ws_.soc_grad, r, grad_s, hess);
    }
    cones_current_ = true;
    for (std::size_t m = 0; m < n; ++m) {
      const double lo_gap = w[m] - box_[m].lo;
      const double hi_gap = box_[m].hi - w[m];
      grad[m] += -1.0 / lo_gap + 1.0 / hi_gap;
      hess(m, m) += 1.0 / (lo_gap * lo_gap) + 1.0 / (hi_gap * hi_gap);
    }

    // Newton direction: dx in w, ds in s (phase I only).
    linalg::Vector& dx = ws_.dx;
    double ds = 0.0;
    double decrement_sq = 0.0;
    if (lifted_) {
      for (std::size_t i = 0; i < n; ++i) ws_.grad1[i] = grad[i];
      ws_.grad1[n] = grad_s;
      result_.factorizations +=
          newton_direction(hess, ws_.grad1, ws_.factor1, ws_.dz);
      decrement_sq = -linalg::dot(ws_.grad1, ws_.dz);
      for (std::size_t i = 0; i < n; ++i) dx[i] = ws_.dz[i];
      ds = ws_.dz[n];
    } else {
      result_.factorizations += newton_direction(hess, grad, ws_.factor, dx);
      decrement_sq = -linalg::dot(grad, dx);
    }
    if (decrement_sq * 0.5 <= barrier::kNewtonTol) return false;

    // Backtracking line search keeping strict feasibility.  The trial
    // evaluations land in ws.trial_cones (scratch until accepted); an
    // accepted trial's value is the next step's reference.
    if (!value_current_) value_ = value(t, w, s, ws_.trial_cones);
    double alpha = 1.0;
    for (int ls = 0; ls < 60; ++ls) {
      linalg::Vector& cand = ws_.cand;
      cand = w;
      cand.axpy(alpha, dx);
      const double cand_s = s + alpha * ds;
      ++result_.line_search_trials;
      const double trial = value(t, cand, cand_s, ws_.trial_cones);
      if (trial < kInf && trial <= value_ - 1e-4 * alpha * decrement_sq) {
        std::swap(w, cand);
        std::swap(ws_.cones, ws_.trial_cones);
        s = cand_s;
        value_ = trial;
        value_current_ = true;
        return true;
      }
      alpha *= 0.5;
    }
    return false;
  }

  const ConvexProblem& p_;
  const Box& box_;
  SolverWorkspace& ws_;
  BarrierResult& result_;
  bool lifted_ = false;  ///< phase I: variables (w, s), rows shifted by s
  bool cones_current_ = false;
  bool value_current_ = false;
  double value_ = kInf;
};

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

void SolverWorkspace::resize(std::size_t n, std::size_t socs) {
  if (hess.rows() != n || hess.cols() != n) {
    grad = linalg::Vector(n);
    dx = linalg::Vector(n);
    w = linalg::Vector(n);
    cand = linalg::Vector(n);
    hess = linalg::Matrix(n, n);
    factor = linalg::Matrix(n, n);
    hess1 = linalg::Matrix(n + 1, n + 1);
    factor1 = linalg::Matrix(n + 1, n + 1);
    grad1 = linalg::Vector(n + 1);
    dz = linalg::Vector(n + 1);
    soc_grad = linalg::Vector(n);
  }
  for (std::vector<Cone>* set : {&cones, &trial_cones}) {
    if (set->size() < socs) set->resize(socs);
    for (Cone& cone : *set) {
      if (cone.sigma_w.size() != n) cone.sigma_w = linalg::Vector(n);
    }
  }
}

Status validate_warm_start(
    const ConvexProblem& problem,
    const std::optional<linalg::Vector>& warm_start) {
  if (!warm_start.has_value()) return Status();
  if (warm_start->size() != problem.dim()) {
    return Status::invalid(
        "barrier: warm start dimension must match problem dimension");
  }
  for (const double v : *warm_start) {
    if (!std::isfinite(v)) {
      return Status::invalid("barrier: warm start entries must be finite");
    }
  }
  return Status();
}

BarrierResult BarrierSolver::solve(
    const ConvexProblem& problem,
    const std::optional<linalg::Vector>& warm_start,
    SolverWorkspace* workspace) const {
  LDAFP_CHECK(problem.has_box(), "barrier solver requires a variable box");
  throw_if_error(validate_warm_start(problem, warm_start));

  SolverWorkspace local;
  SolverWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.resize(problem.dim(), problem.soc().size());

  const Box box = inflate_box(problem.box(), barrier::kMinBoxWidth);

  BarrierResult result;
  Barrier method(problem, box, ws, result);
  // A strictly feasible start in ws.w: the warm start, or phase I's.
  result.phase1_skipped =
      warm_start.has_value() && method.start_at(*warm_start);
  if (!result.phase1_skipped && !method.phase1()) {
    result.status = SolveStatus::kInfeasible;
    result.lower_bound = kInf;  // infeasible node: prune unconditionally
    result.objective = kInf;
    return result;
  }

  result.status = method.phase2(
      result.phase1_skipped ? barrier::kWarmInitialT : barrier::kInitialT);
  result.x = ws.w;
  result.objective = problem.objective(ws.w);
  // Standard barrier certificate: at an (approximate) center for
  // parameter t the duality gap is m/t.  A small multiple absorbs the
  // imperfect centering.
  result.lower_bound =
      result.objective - 2.0 * result.duality_gap - barrier::kGapTol;
  return result;
}

}  // namespace ldafp::opt
