#include "opt/barrier_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/ops.h"
#include "support/error.h"
#include "support/log.h"

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

/// Adds (grad grad')/r² + Hg/r to `hess`, where r = -residual (phase II)
/// or s - residual (phase I), and Hg is the SOC residual Hessian.
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

/// Max constraint residual at w against the problem's *original* box
/// (mirrors ConvexProblem::max_residual; `probe` keeps it off the heap).
double max_residual_ws(const ConvexProblem& p, const linalg::Vector& w,
                       Cone& probe) {
  double worst = -kInf;
  for (std::size_t i = 0; i < p.linear().size(); ++i) {
    worst = std::max(worst, linalg::dot(p.linear()[i].a, w) - p.linear_rhs(i));
  }
  for (const auto& soc : p.soc()) {
    eval_soc(soc, w, probe);
    worst = std::max(worst, probe.residual);
  }
  const Box& box = p.box();
  for (std::size_t m = 0; m < box.size(); ++m) {
    worst = std::max(worst, box[m].lo - w[m]);
    worst = std::max(worst, w[m] - box[m].hi);
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Phase II: minimize t·wᵀQw − Σ log(−gᵢ(w)) over the strictly feasible set.
// ---------------------------------------------------------------------------

struct Phase2Eval {
  bool feasible = false;  // strictly feasible at w
  double value = kInf;    // barrier function value
};

/// Barrier value at w.  Each cone's evaluation lands in `cones`; when the
/// result is feasible they are all current for w.
Phase2Eval eval_phase2(const ConvexProblem& p, const Box& box, double t,
                       const linalg::Vector& w, std::vector<Cone>& cones) {
  Phase2Eval out;
  double barrier = 0.0;
  for (std::size_t i = 0; i < p.linear().size(); ++i) {
    const double g = linalg::dot(p.linear()[i].a, w) - p.linear_rhs(i);
    if (g >= 0.0) return out;
    barrier -= std::log(-g);
  }
  for (std::size_t j = 0; j < p.soc().size(); ++j) {
    eval_soc(p.soc()[j], w, cones[j]);
    const double g = cones[j].residual;
    if (g >= 0.0) return out;
    barrier -= std::log(-g);
  }
  for (std::size_t m = 0; m < box.size(); ++m) {
    const double lo_gap = w[m] - box[m].lo;
    const double hi_gap = box[m].hi - w[m];
    if (lo_gap <= 0.0 || hi_gap <= 0.0) return out;
    barrier -= std::log(lo_gap) + std::log(hi_gap);
  }
  out.feasible = true;
  out.value = t * p.objective(w) + barrier;
  return out;
}

// ---------------------------------------------------------------------------
// Phase I: minimize s subject to gᵢ(w) <= s, w in box.
// ---------------------------------------------------------------------------

/// Runs phase I inside the workspace.  On success (true) ws.w holds a
/// strictly feasible point; false means no such point was found within
/// the iteration budget (treated as infeasible by the caller, matching
/// the certified-prune semantics).  Counters accumulate into `counts`.
bool run_phase1(const ConvexProblem& problem, const Box& box,
                const BarrierOptions& options, SolverWorkspace& ws,
                BarrierResult& counts) {
  const std::size_t n = problem.dim();
  const std::size_t n_ineq = problem.linear().size() + problem.soc().size();

  linalg::Vector& w = ws.w;
  for (std::size_t i = 0; i < n; ++i) w[i] = box[i].mid();
  if (n_ineq == 0) return true;  // box interior is all we need

  // Slack above the worst violation keeps every log argument positive.
  double s = max_residual_ws(problem, w, ws.probe) + 1.0;
  // The box residuals are <= 0 at the center; only linear/SOC matter for s.

  const auto count = static_cast<double>(n_ineq);
  double t = options.initial_t;
  int phase_newton = 0;

  const auto barrier_value = [&](const linalg::Vector& ww,
                                 double ss) -> double {
    double value = t * ss;
    for (std::size_t i = 0; i < problem.linear().size(); ++i) {
      const double margin = ss - (linalg::dot(problem.linear()[i].a, ww) -
                                  problem.linear_rhs(i));
      if (margin <= 0.0) return kInf;
      value -= std::log(margin);
    }
    for (const auto& soc : problem.soc()) {
      eval_soc(soc, ww, ws.probe);
      const double margin = ss - ws.probe.residual;
      if (margin <= 0.0) return kInf;
      value -= std::log(margin);
    }
    for (std::size_t mm = 0; mm < n; ++mm) {
      const double lo_gap = ww[mm] - box[mm].lo;
      const double hi_gap = box[mm].hi - ww[mm];
      if (lo_gap <= 0.0 || hi_gap <= 0.0) return kInf;
      value -= std::log(lo_gap) + std::log(hi_gap);
    }
    return value;
  };

  linalg::Vector& grad = ws.grad1;
  linalg::Matrix& hess = ws.hess1;

  while (true) {
    for (int iter = 0; iter < options.max_newton_per_stage; ++iter) {
      if (phase_newton >= options.max_total_newton) break;
      ++phase_newton;
      ++counts.newton_iterations;

      // Early success: comfortably below zero violation.
      if (s < -10.0 * options.feasibility_margin &&
          max_residual_ws(problem, w, ws.probe) <
              -options.feasibility_margin) {
        return true;
      }

      // Gradient/Hessian in z = (w, s).
      grad.fill(0.0);
      std::fill_n(hess.data(), (n + 1) * (n + 1), 0.0);
      grad[n] = t;

      auto add_constraint = [&](const linalg::Vector& g_grad,
                                double margin) {
        const double inv = 1.0 / margin;
        for (std::size_t i = 0; i < n; ++i) grad[i] += g_grad[i] * inv;
        grad[n] -= inv;
        const double inv2 = inv * inv;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            hess(i, j) += g_grad[i] * g_grad[j] * inv2;
          }
          hess(i, n) -= g_grad[i] * inv2;
          hess(n, i) -= g_grad[i] * inv2;
        }
        hess(n, n) += inv2;
      };

      for (std::size_t i = 0; i < problem.linear().size(); ++i) {
        const double margin = s - (linalg::dot(problem.linear()[i].a, w) -
                                   problem.linear_rhs(i));
        add_constraint(problem.linear()[i].a, margin);
      }
      for (std::size_t j = 0; j < problem.soc().size(); ++j) {
        const SocConstraint& soc = problem.soc()[j];
        Cone& e = ws.cones[j];
        eval_soc(soc, w, e);
        const linalg::Vector& sigma_w = e.sigma_w;
        const double margin = s - e.residual;
        soc_gradient(soc, e, ws.soc_grad);
        add_constraint(ws.soc_grad, margin);
        // Curvature of the SOC residual itself.
        const double a = soc.beta / e.root / margin;
        const double b =
            soc.beta / (e.root * e.root * e.root) / margin;
        for (std::size_t ii = 0; ii < n; ++ii) {
          for (std::size_t jj = 0; jj < n; ++jj) {
            hess(ii, jj) += a * soc.sigma(ii, jj) -
                            b * sigma_w[ii] * sigma_w[jj];
          }
        }
      }
      for (std::size_t mm = 0; mm < n; ++mm) {
        const double lo_gap = w[mm] - box[mm].lo;
        const double hi_gap = box[mm].hi - w[mm];
        grad[mm] += -1.0 / lo_gap + 1.0 / hi_gap;
        hess(mm, mm) += 1.0 / (lo_gap * lo_gap) + 1.0 / (hi_gap * hi_gap);
      }

      counts.factorizations += newton_direction(hess, grad, ws.factor1, ws.dz);
      const linalg::Vector& dz = ws.dz;
      const double decrement_sq = -linalg::dot(grad, dz);
      if (decrement_sq * 0.5 <= options.newton_tol) break;

      const double here = barrier_value(w, s);
      double alpha = 1.0;
      bool stepped = false;
      for (int ls = 0; ls < 60; ++ls) {
        linalg::Vector& cand = ws.cand;
        cand = w;
        for (std::size_t i = 0; i < n; ++i) cand[i] += alpha * dz[i];
        const double cand_s = s + alpha * dz[n];
        ++counts.line_search_trials;
        const double trial = barrier_value(cand, cand_s);
        if (trial <= here - 1e-4 * alpha * decrement_sq) {
          std::swap(w, cand);
          s = cand_s;
          stepped = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!stepped) break;
    }

    // Converged for this t: feasible iff s is negative.
    if (max_residual_ws(problem, w, ws.probe) <
        -options.feasibility_margin) {
      return true;
    }
    if (count / t <= options.gap_tol ||
        phase_newton >= options.max_total_newton) {
      // s* >= 0 to within tolerance: no strictly feasible point.
      return false;
    }
    t *= options.mu;
  }
}

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

Status BarrierOptions::validate() const {
  if (!(gap_tol > 0.0)) {
    return Status::invalid("barrier: gap_tol must be positive");
  }
  if (!(initial_t > 0.0)) {
    return Status::invalid("barrier: initial_t must be positive");
  }
  if (!(warm_initial_t > 0.0)) {
    return Status::invalid("barrier: warm_initial_t must be positive");
  }
  if (!(mu > 1.0)) {
    return Status::invalid(
        "barrier: mu must exceed 1 (the barrier parameter must grow)");
  }
  if (max_newton_per_stage < 1) {
    return Status::invalid("barrier: max_newton_per_stage must be at least 1");
  }
  if (max_total_newton < 1) {
    return Status::invalid("barrier: max_total_newton must be at least 1");
  }
  if (!(newton_tol > 0.0)) {
    return Status::invalid("barrier: newton_tol must be positive");
  }
  if (!(feasibility_margin >= 0.0)) {
    return Status::invalid(
        "barrier: feasibility_margin must be non-negative");
  }
  if (!(min_box_width >= 0.0)) {
    return Status::invalid("barrier: min_box_width must be non-negative");
  }
  return Status();
}

void SolverWorkspace::resize(std::size_t n, std::size_t socs) {
  if (hess.rows() != n || hess.cols() != n) {
    hess = linalg::Matrix(n, n);
    factor = linalg::Matrix(n, n);
    hess1 = linalg::Matrix(n + 1, n + 1);
    factor1 = linalg::Matrix(n + 1, n + 1);
    grad = linalg::Vector(n);
    dx = linalg::Vector(n);
    w = linalg::Vector(n);
    cand = linalg::Vector(n);
    grad1 = linalg::Vector(n + 1);
    dz = linalg::Vector(n + 1);
    soc_grad = linalg::Vector(n);
    probe.sigma_w = linalg::Vector(n);
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
  throw_if_error(options_.validate());
  LDAFP_CHECK(problem.has_box(), "barrier solver requires a variable box");
  throw_if_error(validate_warm_start(problem, warm_start));

  SolverWorkspace local;
  SolverWorkspace& ws = workspace != nullptr ? *workspace : local;
  const std::size_t n = problem.dim();
  ws.resize(n, problem.soc().size());

  const Box box = inflate_box(problem.box(), options_.min_box_width);

  BarrierResult result;
  result.lower_bound = -kInf;

  // Obtain a strictly feasible start in ws.w.  A feasible warm-start check
  // leaves every cone evaluated at the start point.
  if (warm_start.has_value() &&
      eval_phase2(problem, box, 1.0, *warm_start, ws.cones).feasible) {
    ws.w = *warm_start;
    result.phase1_skipped = true;
  } else {
    if (!run_phase1(problem, box, options_, ws, result)) {
      result.status = SolveStatus::kInfeasible;
      result.lower_bound = kInf;  // infeasible node: prune unconditionally
      result.objective = kInf;
      return result;
    }
  }

  linalg::Vector& w = ws.w;
  const auto m = static_cast<double>(problem.constraint_count());
  double t = result.phase1_skipped
                 ? std::max(options_.initial_t, options_.warm_initial_t)
                 : options_.initial_t;
  int phase2_newton = 0;
  bool hit_iteration_limit = false;
  // Evaluations already made at the current iterate, reused bit-for-bit:
  // ws.cones (valid for any t) and the barrier value at t (valid within
  // one centering stage).  Both live only in this call.
  bool cones_current = result.phase1_skipped;
  bool here_current = false;
  double here = kInf;

  while (true) {
    // Newton centering at the current t.
    for (int iter = 0; iter < options_.max_newton_per_stage; ++iter) {
      if (phase2_newton >= options_.max_total_newton) {
        hit_iteration_limit = true;
        break;
      }
      ++phase2_newton;
      ++result.newton_iterations;

      // Assemble gradient and Hessian of the barrier-augmented objective.
      linalg::sym_matvec_quad(problem.objective_matrix(), w, ws.grad);
      ws.grad *= 2.0 * t;
      ws.hess = problem.objective_matrix();
      ws.hess *= 2.0 * t;
      linalg::Vector& grad = ws.grad;
      linalg::Matrix& hess = ws.hess;

      for (std::size_t i = 0; i < problem.linear().size(); ++i) {
        const linalg::Vector& a = problem.linear()[i].a;
        const double r = -(linalg::dot(a, w) - problem.linear_rhs(i));
        grad.axpy(1.0 / r, a);
        add_linear_barrier_hessian(a, r, hess);
      }
      for (std::size_t j = 0; j < problem.soc().size(); ++j) {
        const SocConstraint& soc = problem.soc()[j];
        Cone& e = ws.cones[j];
        if (!cones_current) eval_soc(soc, w, e);
        const double r = -e.residual;
        soc_gradient(soc, e, ws.soc_grad);
        grad.axpy(1.0 / r, ws.soc_grad);
        add_soc_barrier_hessian(soc, e, ws.soc_grad, r, hess);
      }
      cones_current = true;
      for (std::size_t mm = 0; mm < n; ++mm) {
        const double lo_gap = w[mm] - box[mm].lo;
        const double hi_gap = box[mm].hi - w[mm];
        grad[mm] += -1.0 / lo_gap + 1.0 / hi_gap;
        hess(mm, mm) += 1.0 / (lo_gap * lo_gap) + 1.0 / (hi_gap * hi_gap);
      }

      result.factorizations +=
          newton_direction(hess, grad, ws.factor, ws.dx);
      const linalg::Vector& dx = ws.dx;
      const double decrement_sq = -linalg::dot(grad, dx);
      if (decrement_sq * 0.5 <= options_.newton_tol) break;

      // Backtracking line search keeping strict feasibility.  The trial
      // evaluations land in ws.trial_cones (scratch until accepted).
      if (!here_current) {
        here = eval_phase2(problem, box, t, w, ws.trial_cones).value;
      }
      double alpha = 1.0;
      bool stepped = false;
      for (int ls = 0; ls < 60; ++ls) {
        linalg::Vector& cand = ws.cand;
        cand = w;
        cand.axpy(alpha, dx);
        ++result.line_search_trials;
        const Phase2Eval trial =
            eval_phase2(problem, box, t, cand, ws.trial_cones);
        if (trial.feasible &&
            trial.value <= here - 1e-4 * alpha * decrement_sq) {
          std::swap(w, cand);
          std::swap(ws.cones, ws.trial_cones);
          here = trial.value;
          here_current = true;
          stepped = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!stepped) break;  // stalled: accept the center we have
    }

    result.duality_gap = m / t;
    if (hit_iteration_limit || result.duality_gap <= options_.gap_tol) break;
    t *= options_.mu;
    here_current = false;
  }

  result.x = w;
  result.objective = problem.objective(w);
  // Standard barrier certificate: at an (approximate) center for
  // parameter t the duality gap is m/t.  A small multiple absorbs the
  // imperfect centering.
  result.lower_bound =
      result.objective - 2.0 * result.duality_gap - options_.gap_tol;
  result.status = hit_iteration_limit ? SolveStatus::kIterationLimit
                                      : SolveStatus::kOptimal;
  return result;
}

std::optional<linalg::Vector> BarrierSolver::find_strictly_feasible(
    const ConvexProblem& problem) const {
  throw_if_error(options_.validate());
  LDAFP_CHECK(problem.has_box(), "barrier solver requires a variable box");
  const Box box = inflate_box(problem.box(), options_.min_box_width);
  SolverWorkspace ws;
  ws.resize(problem.dim(), problem.soc().size());
  BarrierResult counts;
  if (!run_phase1(problem, box, options_, ws, counts)) {
    return std::nullopt;
  }
  return ws.w;
}

}  // namespace ldafp::opt
