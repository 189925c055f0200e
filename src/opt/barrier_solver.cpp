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

/// Solves H dx = -g into `dx` with escalating diagonal jitter, using
/// `factor` as factorization scratch.  Reads and copies only the lower
/// triangle of H, all Cholesky reads; the jitter scale is max |H_ii|,
/// which for a PSD matrix is its largest entry.  Returns the number of
/// Cholesky attempts (retries included); allocation-free.
int newton_direction(const linalg::Matrix& hess, const linalg::Vector& grad,
                     linalg::Matrix& factor, linalg::Vector& dx) {
  const std::size_t n = hess.rows();
  double diag_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diag_max = std::max(diag_max, std::fabs(hess(i, i)));
  }
  const double scale = std::max(diag_max, 1.0);
  const double max_jitter = 1e-2 * scale;
  double jitter = 1e-12 * scale;
  int attempts = 0;
  while (true) {
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(hess.data() + i * n, i + 1, factor.data() + i * n);
      factor(i, i) += jitter;
    }
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

/// The barrier method of one solve() call.  What it knows about the
/// iterate lives in the workspace's directional terms (forms, cones,
/// rows).  Each A·w is formed afresh when a phase starts and then moves
/// with the iterate by one axpy per accepted step; the scalars wᵀAw, cᵀw
/// and aᵀw are re-read from the moved vectors (O(n) each), so they never
/// drift from them.  Within a centering stage the accepted trial's value
/// is the next step's reference.  Validity lives here, never in the
/// workspace, so a workspace left over from another problem is never
/// trusted.
class Barrier {
 public:
  Barrier(const ConvexProblem& problem, const Box& box, SolverWorkspace& ws,
          BarrierResult& result)
      : p_(problem), box_(box), ws_(ws), result_(result) {}

  /// Starts phase II at w when w is strictly feasible; false when it is
  /// not (ws.w is overwritten either way).
  bool start_at(const linalg::Vector& w) {
    ws_.w = w;
    load();
    return logs(0.0) < kInf;
  }

  /// Phase I from the box center.  True leaves a strictly feasible point
  /// in ws.w; false means none was found within the Newton budget
  /// (treated as infeasible by the caller, matching the certified-prune
  /// semantics).
  bool phase1() {
    linalg::Vector& w = ws_.w;
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = box_[i].mid();
    const std::size_t rows = p_.linear().size() + p_.soc().size();
    if (rows == 0) return true;  // box interior is all we need

    load();
    lifted_ = true;
    // Slack above the worst violation keeps every log argument positive.
    // The box residuals are <= 0 at the center; only linear/SOC matter.
    s_ = p_.max_residual(w) + 1.0;
    double t = barrier::kInitialT;
    int newton = 0;
    while (true) {
      value_current_ = false;
      int iter = 0;
      for (; iter < barrier::kMaxNewtonPerStage &&
             newton < barrier::kMaxTotalNewton;
           ++iter) {
        ++newton;
        ++result_.newton_iterations;
        // Early success: comfortably below zero violation.
        if (s_ < -10.0 * barrier::kFeasibilityMargin &&
            p_.max_residual(w) < -barrier::kFeasibilityMargin) {
          return true;
        }
        if (!newton_step(t)) break;
      }
      if (iter == barrier::kMaxNewtonPerStage) ++result_.stage_limit_hits;
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
    s_ = 0.0;
    ds_ = 0.0;
    ws_.forms[0].load(p_.objective_matrix(), ws_.w);
    const auto m = static_cast<double>(p_.constraint_count());
    int newton = 0;
    bool out_of_budget = false;
    while (true) {
      value_current_ = false;
      int iter = 0;
      for (; iter < barrier::kMaxNewtonPerStage; ++iter) {
        if (newton >= barrier::kMaxTotalNewton) {
          out_of_budget = true;
          break;
        }
        ++newton;
        ++result_.newton_iterations;
        if (!newton_step(t)) break;  // centered or stalled
      }
      if (iter == barrier::kMaxNewtonPerStage) ++result_.stage_limit_hits;
      result_.duality_gap = m / t;
      if (out_of_budget) return SolveStatus::kIterationLimit;
      if (result_.duality_gap <= barrier::kGapTol) return SolveStatus::kOptimal;
      t *= barrier::kMu;
    }
  }

 private:
  DirectionalForm& sigma_form(std::size_t j) const {
    return ws_.forms[1 + p_.structure().sigma_slot(j)];
  }

  /// Loads every row's, cone's and Σ's terms afresh at ws.w, with the
  /// step set to 0 (so α = 0 reads the iterate).  The objective's form is
  /// phase II's and is loaded there.
  void load() {
    const linalg::Vector& w = ws_.w;
    ws_.dx.fill(0.0);
    ds_ = 0.0;
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      ws_.rows[i] = {linalg::dot(p_.linear()[i].a, w), 0.0};
    }
    const ProblemStructure& st = p_.structure();
    for (std::size_t k = 0; k < st.sigma_count(); ++k) {
      ws_.forms[1 + k].load(st.sigma(k), w);
    }
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      ws_.cones[j].cw = linalg::dot(p_.soc()[j].c, w);
      ws_.cones[j].cd = 0.0;
    }
  }

  /// φ at (w + α·dx, s + α·ds) from the step's terms, or +inf when some
  /// margin is not positive.  O(1) per row and per cone plus the O(n) box.
  double logs(double alpha) const {
    const double shift = lifted_ ? s_ + alpha * ds_ : 0.0;
    double phi = 0.0;
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      const SolverWorkspace::Row& row = ws_.rows[i];
      const double r = shift - ((row.aw + alpha * row.ad) - p_.linear_rhs(i));
      if (r <= 0.0) return kInf;
      phi -= std::log(r);
    }
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      const SocConstraint& soc = p_.soc()[j];
      const SolverWorkspace::Cone& cone = ws_.cones[j];
      const double root =
          std::sqrt(std::max(sigma_form(j).at(alpha), 0.0) + soc.eps);
      const double r =
          shift - (soc.beta * root + (cone.cw + alpha * cone.cd) - soc.d);
      if (r <= 0.0) return kInf;
      phi -= std::log(r);
    }
    const linalg::Vector& w = ws_.w;
    const linalg::Vector& dx = ws_.dx;
    for (std::size_t m = 0; m < box_.size(); ++m) {
      const double x = w[m] + alpha * dx[m];
      const double lo_gap = x - box_[m].lo;
      const double hi_gap = box_[m].hi - x;
      if (lo_gap <= 0.0 || hi_gap <= 0.0) return kInf;
      phi -= std::log(lo_gap) + std::log(hi_gap);
    }
    return phi;
  }

  /// The barrier-augmented objective at step length α: t·s + φ in
  /// phase I, t·wᵀQw + φ in phase II; +inf outside the domain.
  double value(double t, double alpha) const {
    const double phi = logs(alpha);
    if (phi == kInf) return kInf;
    return t * (lifted_ ? s_ + alpha * ds_ : ws_.forms[0].at(alpha)) + phi;
  }

  /// Moves the iterate to step length α: each A·w by one axpy, and the
  /// scalars re-read at the new w.
  void accept(double alpha) {
    linalg::Vector& w = ws_.w;
    w.axpy(alpha, ws_.dx);
    s_ += alpha * ds_;
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      ws_.rows[i].aw = linalg::dot(p_.linear()[i].a, w);
    }
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      ws_.cones[j].cw = linalg::dot(p_.soc()[j].c, w);
    }
    for (std::size_t k = lifted_ ? 1 : 0; k < forms_used(); ++k) {
      ws_.forms[k].advance(alpha, w);
    }
  }

  std::size_t forms_used() const { return 1 + p_.structure().sigma_count(); }

  /// Gradient of f in w into ws.grad, and the Newton system (the n × n
  /// one, or phase I's (n+1) × (n+1) one with its s-row) into the lower
  /// triangle of `hess` in one pass over its rows:
  ///   H = 2tQ + Σₖ aₖΣₖ + Σ c·v·vᵀ + box diagonal,
  /// where each distinct Σₖ's weight aₖ sums β/(root·r) over its cones
  /// and the rank-1 terms are the rows' and cones' ∇g∇gᵀ/r² and each
  /// Σₖ's −Σ β/(root³·r)·(Σₖw)(Σₖw)ᵀ.  Returns phase I's ∂f/∂s.
  double assemble(double t, linalg::Matrix& hess) {
    const linalg::Vector& w = ws_.w;
    linalg::Vector& grad = ws_.grad;
    const std::size_t n = w.size();
    const double shift = lifted_ ? s_ : 0.0;
    const ProblemStructure& st = p_.structure();

    if (lifted_) {
      grad.fill(0.0);
    } else {
      grad = ws_.forms[0].aw;
      grad *= 2.0 * t;
    }
    double grad_s = t;   // phase I's ∂f/∂s
    double hess_ss = 0.0;  // and ∂²f/∂s²
    std::size_t terms = 0;
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      const linalg::Vector& a = p_.linear()[i].a;
      const double r = shift - (ws_.rows[i].aw - p_.linear_rhs(i));
      grad.axpy(1.0 / r, a);
      grad_s -= 1.0 / r;
      hess_ss += 1.0 / (r * r);
      ws_.rank1[terms++] = {a.data(), 1.0 / (r * r)};
    }
    std::fill_n(ws_.sigma_weight.begin(), st.sigma_count(),
                SolverWorkspace::SigmaWeight{});
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      const SocConstraint& soc = p_.soc()[j];
      SolverWorkspace::Cone& cone = ws_.cones[j];
      const DirectionalForm& f = sigma_form(j);
      const double root = std::sqrt(std::max(f.quad, 0.0) + soc.eps);
      const double r = shift - (soc.beta * root + cone.cw - soc.d);
      cone.grad = f.aw;
      cone.grad *= soc.beta / root;
      cone.grad += soc.c;
      grad.axpy(1.0 / r, cone.grad);
      grad_s -= 1.0 / r;
      hess_ss += 1.0 / (r * r);
      ws_.rank1[terms++] = {cone.grad.data(), 1.0 / (r * r)};
      SolverWorkspace::SigmaWeight& weight =
          ws_.sigma_weight[st.sigma_slot(j)];
      weight.scale += soc.beta / root / r;
      weight.outer += soc.beta / (root * root * root) / r;
    }
    const std::size_t coupled = terms;  // terms with an s-coupling
    for (std::size_t k = 0; k < st.sigma_count(); ++k) {
      ws_.rank1[terms++] = {ws_.forms[1 + k].aw.data(),
                            -ws_.sigma_weight[k].outer};
    }

    const linalg::Matrix& q = p_.objective_matrix();
    const double q_weight = lifted_ ? 0.0 : 2.0 * t;
    for (std::size_t i = 0; i < n; ++i) {
      double* h = &hess(i, 0);
      const double* qi = q.data() + i * n;
      for (std::size_t j = 0; j <= i; ++j) h[j] = q_weight * qi[j];
      for (std::size_t k = 0; k < st.sigma_count(); ++k) {
        const double a = ws_.sigma_weight[k].scale;
        const double* si = st.sigma(k).data() + i * n;
        for (std::size_t j = 0; j <= i; ++j) h[j] += a * si[j];
      }
      for (std::size_t r = 0; r < terms; ++r) {
        const double* v = ws_.rank1[r].v;
        const double ci = ws_.rank1[r].c * v[i];
        if (ci == 0.0) continue;
        for (std::size_t j = 0; j <= i; ++j) h[j] += ci * v[j];
      }
      const double lo_gap = w[i] - box_[i].lo;
      const double hi_gap = box_[i].hi - w[i];
      grad[i] += -1.0 / lo_gap + 1.0 / hi_gap;
      h[i] += 1.0 / (lo_gap * lo_gap) + 1.0 / (hi_gap * hi_gap);
    }
    if (lifted_) {
      // The s-row: ∂²f/∂s∂w = −Σ ∇g/r² over the shifted rows and cones.
      double* hs = &hess(n, 0);
      std::fill_n(hs, n, 0.0);
      for (std::size_t r = 0; r < coupled; ++r) {
        const double* v = ws_.rank1[r].v;
        const double c = ws_.rank1[r].c;
        for (std::size_t j = 0; j < n; ++j) hs[j] -= c * v[j];
      }
      hs[n] = hess_ss;
    }
    return grad_s;
  }

  /// One damped Newton step at parameter t from (ws.w, s).  False when
  /// the iterate is already centered or the line search stalled.
  bool newton_step(double t) {
    linalg::Vector& grad = ws_.grad;
    linalg::Vector& dx = ws_.dx;
    const std::size_t n = ws_.w.size();

    // Newton direction: dx in w, ds in s (phase I only).
    double decrement_sq = 0.0;
    if (lifted_) {
      const double grad_s = assemble(t, ws_.hess1);
      for (std::size_t i = 0; i < n; ++i) ws_.grad1[i] = grad[i];
      ws_.grad1[n] = grad_s;
      result_.factorizations +=
          newton_direction(ws_.hess1, ws_.grad1, ws_.factor1, ws_.dz);
      decrement_sq = -linalg::dot(ws_.grad1, ws_.dz);
      for (std::size_t i = 0; i < n; ++i) dx[i] = ws_.dz[i];
      ds_ = ws_.dz[n];
    } else {
      assemble(t, ws_.hess);
      result_.factorizations +=
          newton_direction(ws_.hess, grad, ws_.factor, dx);
      decrement_sq = -linalg::dot(grad, dx);
    }
    if (decrement_sq * 0.5 <= barrier::kNewtonTol) return false;

    // Expand every quadratic form and row along the step once, so each
    // backtracking trial below costs O(1) per row and per cone.
    for (std::size_t k = lifted_ ? 1 : 0; k < forms_used(); ++k) {
      const linalg::Matrix& a = k == 0 ? p_.objective_matrix()
                                       : p_.structure().sigma(k - 1);
      ws_.forms[k].set_direction(a, dx);
    }
    for (std::size_t i = 0; i < p_.linear().size(); ++i) {
      ws_.rows[i].ad = linalg::dot(p_.linear()[i].a, dx);
    }
    for (std::size_t j = 0; j < p_.soc().size(); ++j) {
      ws_.cones[j].cd = linalg::dot(p_.soc()[j].c, dx);
    }

    // Backtracking line search keeping strict feasibility.  The reference
    // is read from the same terms as the trials (α = 0), and an accepted
    // trial's value is the next step's reference.
    if (!value_current_) value_ = value(t, 0.0);
    double alpha = 1.0;
    for (int ls = 0; ls < 60; ++ls) {
      ++result_.line_search_trials;
      const double trial = value(t, alpha);
      if (trial < kInf && trial <= value_ - 1e-4 * alpha * decrement_sq) {
        accept(alpha);
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
  double s_ = 0.0;       ///< phase I's s
  double ds_ = 0.0;      ///< phase I's step in s
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

void DirectionalForm::load(const linalg::Matrix& a, const linalg::Vector& w) {
  quad = linalg::sym_matvec_quad(a, w, aw);
  cross = 0.0;
  curv = 0.0;
}

void DirectionalForm::set_direction(const linalg::Matrix& a,
                                    const linalg::Vector& d) {
  curv = linalg::sym_matvec_quad(a, d, ad);
  cross = linalg::dot(aw, d);
}

void DirectionalForm::advance(double alpha, const linalg::Vector& w) {
  aw.axpy(alpha, ad);
  quad = linalg::dot(w, aw);
}

void SolverWorkspace::resize(const ConvexProblem& problem) {
  const std::size_t n = problem.dim();
  const std::size_t socs = problem.soc().size();
  const std::size_t sigmas = problem.structure().sigma_count();
  if (hess.rows() != n || hess.cols() != n) {
    grad = linalg::Vector(n);
    dx = linalg::Vector(n);
    w = linalg::Vector(n);
    hess = linalg::Matrix(n, n);
    factor = linalg::Matrix(n, n);
    hess1 = linalg::Matrix(n + 1, n + 1);
    factor1 = linalg::Matrix(n + 1, n + 1);
    grad1 = linalg::Vector(n + 1);
    dz = linalg::Vector(n + 1);
  }
  if (forms.size() < 1 + sigmas) forms.resize(1 + sigmas);
  for (DirectionalForm& f : forms) {
    if (f.aw.size() != n) {
      f.aw = linalg::Vector(n);
      f.ad = linalg::Vector(n);
    }
  }
  if (cones.size() < socs) cones.resize(socs);
  for (Cone& cone : cones) {
    if (cone.grad.size() != n) cone.grad = linalg::Vector(n);
  }
  if (rows.size() < problem.linear().size()) {
    rows.resize(problem.linear().size());
  }
  if (sigma_weight.size() < sigmas) sigma_weight.resize(sigmas);
  const std::size_t terms = problem.linear().size() + socs + sigmas;
  if (rank1.size() < terms) rank1.resize(terms);
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
  ws.resize(problem);

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
