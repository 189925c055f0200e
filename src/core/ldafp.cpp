#include "core/ldafp.h"

#include <cmath>
#include <limits>

#include "core/constraints.h"
#include "core/lda.h"
#include "fixed/grid.h"
#include "linalg/eigen_sym.h"
#include "opt/barrier_solver.h"
#include "stats/normal.h"
#include "support/error.h"
#include "support/log.h"
#include "support/timer.h"

namespace ldafp::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// t-first branching splits t while sup t²/inf t² exceeds kTGapRatio, but
/// never below kMinTWidthRel of the root t-interval width.
constexpr double kTGapRatio = 4.0;
constexpr double kMinTWidthRel = 1e-3;

/// A box is terminal (exactly enumerated) when it holds at most this
/// many grid points.
constexpr std::int64_t kMaxEnumPoints = 2048;

/// Raw grid index of a grid-aligned value (value * 2^F).
std::int64_t grid_index(double value, const fixed::FixedFormat& fmt) {
  return static_cast<std::int64_t>(
      std::llround(std::ldexp(value, fmt.frac_bits())));
}

/// Number of grid points in a grid-aligned interval.
std::int64_t aligned_count(const opt::Interval& iv,
                           const fixed::FixedFormat& fmt) {
  if (iv.empty()) return 0;
  return grid_index(iv.hi, fmt) - grid_index(iv.lo, fmt) + 1;
}

/// The branch-and-bound problem: variables (w_1..w_M, t), objective
/// wᵀS_W w / t², w restricted to the QK.F grid, t = (μ_A-μ_B)ᵀw.
class LdaFpSearchProblem : public opt::BnbProblem {
 public:
  LdaFpSearchProblem(const stats::TwoClassModel& model, linalg::Matrix sw,
                     const fixed::FixedFormat& fmt, double beta,
                     const LdaFpOptions& options, double root_t_width)
      : model_(model),
        sw_(std::move(sw)),
        mean_diff_(model.mean_difference()),
        fmt_(fmt),
        beta_(beta),
        options_(options),
        min_t_width_(kMinTWidthRel * root_t_width) {
    dim_ = mean_diff_.size();
    // λ_min(S_W) powers the degenerate-t secondary bound: any non-zero
    // grid point has ‖w‖₂ >= resolution, so cost >= λ_min·res²/η_sup.
    const linalg::SymmetricEigen eig = linalg::eigen_symmetric(sw_);
    lambda_min_ = std::max(eig.eigenvalues[0], 0.0);
    // Build the tree-invariant relaxation structure once (DESIGN.md §10):
    // Q = S_W, the two t-interval rows (per-node right-hand sides), and
    // the four Eq. 20 SOC cones.  Every node view shares it by pointer.
    opt::ConvexProblem builder(sw_);
    builder.add_linear({mean_diff_, 0.0});    // dᵀw <= u_t (rhs per node)
    builder.add_linear({-mean_diff_, 0.0});   // -dᵀw <= -l_t (rhs per node)
    // Eq. 20: four SOC constraints.  The smoothing eps slightly tightens
    // each cone, so the right-hand side is loosened by β√eps to keep
    // every truly feasible w inside the relaxation (bound validity).
    const double eps = 1e-12;
    const double slack = beta_ * std::sqrt(eps);
    for (const stats::GaussianModel* cls :
         {&model_.class_a, &model_.class_b}) {
      builder.add_soc({beta_, cls->sigma(), -cls->mu(),
                       -fmt_.min_value() + slack, eps});
      builder.add_soc({beta_, cls->sigma(), cls->mu(),
                       fmt_.max_value() + slack, eps});
    }
    structure_ = builder.share_structure();
  }

  opt::NodeBounds bound(const opt::Box& box,
                        const opt::BoundContext& ctx) override {
    opt::NodeBounds out;
    const opt::Interval tv = box[dim_];
    const double eta_sup = std::max(tv.lo * tv.lo, tv.hi * tv.hi);
    if (eta_sup <= 0.0) {
      out.lower = kInf;  // t == 0 only: no classifier lives here
      return out;
    }
    const double res = fmt_.resolution();
    const double secondary = lambda_min_ * res * res / eta_sup;

    const opt::ConvexProblem relaxation = build_relaxation(box);
    opt::BarrierResult solve = opt::BarrierSolver().solve(
        relaxation, make_seed(ctx, box), &thread_workspace());
    out.stats.relaxations = 1;
    out.stats.newton_iterations =
        static_cast<std::uint64_t>(solve.newton_iterations);
    out.stats.factorizations =
        static_cast<std::uint64_t>(solve.factorizations);
    out.stats.line_search_trials =
        static_cast<std::uint64_t>(solve.line_search_trials);
    out.stats.stage_limit_hits =
        static_cast<std::uint64_t>(solve.stage_limit_hits);
    out.stats.phase1_skips = solve.phase1_skipped ? 1 : 0;
    if (solve.status == opt::SolveStatus::kInfeasible) {
      out.lower = kInf;
      return out;
    }
    double relax_lower = 0.0;  // wᵀS_W w >= 0 always holds
    if (solve.status == opt::SolveStatus::kOptimal) {
      relax_lower = std::max(solve.lower_bound, 0.0);
    }
    out.lower = std::max(relax_lower / eta_sup, secondary);

    // Upper-bound heuristic (paper's Eq. 27 step): the relaxation
    // minimizer is independent of η, so reuse it — round to the grid and
    // evaluate the exact cost.
    if (solve.x.size() == dim_) {
      const auto cand = try_candidate(solve.x, &out.stats);
      if (cand.has_value()) {
        out.candidate = cand->first;
        out.candidate_value = cand->second;
      }
      // Hand the relaxation optimum back to the driver: it becomes the
      // children's warm start (BoundContext).
      out.relaxation_point = std::move(solve.x);
    }
    return out;
  }

  bool is_terminal(const opt::Box& box) const override {
    std::int64_t product = 1;
    for (std::size_t m = 0; m < dim_; ++m) {
      const std::int64_t count = aligned_count(box[m], fmt_);
      if (count == 0) return true;  // empty: nothing to enumerate
      if (product > kMaxEnumPoints / count) {
        return false;  // saturating multiply would overflow the cap
      }
      product *= count;
    }
    return product <= kMaxEnumPoints;
  }

  opt::NodeBounds solve_terminal(const opt::Box& box) override {
    opt::NodeBounds out;
    out.lower = kInf;
    std::vector<std::vector<double>> axes(dim_);
    for (std::size_t m = 0; m < dim_; ++m) {
      axes[m] = fixed::grid_points(box[m].lo, box[m].hi, fmt_, kMaxEnumPoints);
      if (axes[m].empty()) return out;
    }
    const opt::Interval tv = box[dim_];
    const double t_tol = 1e-9 * (1.0 + std::fabs(tv.lo) + std::fabs(tv.hi));

    linalg::Vector w(dim_);
    std::vector<std::size_t> idx(dim_, 0);
    for (std::size_t m = 0; m < dim_; ++m) w[m] = axes[m][0];
    while (true) {
      const double t = linalg::dot(mean_diff_, w);
      if (t >= tv.lo - t_tol && t <= tv.hi + t_tol && t != 0.0 &&
          satisfies_projection_constraints(w, model_, beta_, fmt_, 1e-9)) {
        const double cost = exact_cost(w, sw_, mean_diff_);
        if (cost < out.candidate_value) {
          out.candidate = w;
          out.candidate_value = cost;
          out.lower = cost;
        }
      }
      // Odometer increment.
      std::size_t m = 0;
      while (m < dim_) {
        if (++idx[m] < axes[m].size()) {
          w[m] = axes[m][idx[m]];
          break;
        }
        idx[m] = 0;
        w[m] = axes[m][0];
        ++m;
      }
      if (m == dim_) break;
    }
    return out;
  }

  std::pair<opt::Box, opt::Box> branch(const opt::Box& box) override {
    const opt::Interval tv = box[dim_];
    // t-first branching: split while the η gap is what dominates the
    // relaxation looseness.
    if (options_.branch_t_first && tv.width() > min_t_width_) {
      bool split_t = tv.lo < 0.0 && tv.hi > 0.0;
      if (!split_t) {
        const double lo2 = tv.lo * tv.lo;
        const double hi2 = tv.hi * tv.hi;
        const double ratio = std::max(lo2, hi2) /
                             std::max(std::min(lo2, hi2), 1e-300);
        split_t = ratio > kTGapRatio;
      }
      if (split_t) {
        const double point =
            (tv.lo < 0.0 && tv.hi > 0.0) ? 0.0 : tv.mid();
        auto children = box.split(dim_, point);
        tighten_t(children.first);
        tighten_t(children.second);
        return children;
      }
    }

    // Otherwise split the w dimension with the most grid points at its
    // middle grid index, keeping both children grid-aligned and disjoint.
    std::size_t best = 0;
    std::int64_t best_count = 0;
    for (std::size_t m = 0; m < dim_; ++m) {
      const std::int64_t count = aligned_count(box[m], fmt_);
      if (count > best_count) {
        best_count = count;
        best = m;
      }
    }
    LDAFP_CHECK(best_count >= 2, "branch called on an enumerable box");
    const std::int64_t first = grid_index(box[best].lo, fmt_);
    const std::int64_t mid = first + (best_count - 1) / 2;
    const double left_hi = std::ldexp(static_cast<double>(mid),
                                      -fmt_.frac_bits());
    const double right_lo = std::ldexp(static_cast<double>(mid + 1),
                                       -fmt_.frac_bits());
    opt::Box left = box;
    opt::Box right = box;
    left[best].hi = left_hi;
    right[best].lo = right_lo;
    tighten_t(left);
    tighten_t(right);
    return {std::move(left), std::move(right)};
  }

  /// Rounds a relaxation point to the grid, repairs it into the Eq. 18
  /// intervals, verifies full feasibility, optionally polishes, and
  /// returns (w, exact cost).  The polish's exact-cost count is added to
  /// `stats` when given.
  std::optional<std::pair<linalg::Vector, double>> try_candidate(
      const linalg::Vector& x, opt::NodeStats* stats = nullptr) const {
    linalg::Vector w = fixed::snap_to_grid(x, fmt_, options_.rounding);
    // Orient toward class A: the Fisher cost is invariant under w -> -w,
    // but the Eq. 12 decision rule needs t = (μ_A-μ_B)ᵀw > 0.  The search
    // box is restricted to t >= 0, so flip mis-oriented candidates.
    if (linalg::dot(mean_diff_, w) < 0.0) {
      for (std::size_t m = 0; m < dim_; ++m) {
        w[m] = fmt_.round_to_grid(-w[m], options_.rounding);
      }
    }
    for (std::size_t m = 0; m < dim_; ++m) {
      const opt::Interval iv =
          feasible_weight_interval(m, model_, beta_, fmt_);
      w[m] = std::min(std::max(w[m], fixed::grid_ceil(iv.lo, fmt_)),
                      fixed::grid_floor(iv.hi, fmt_));
    }
    if (!satisfies_projection_constraints(w, model_, beta_, fmt_, 1e-9)) {
      return std::nullopt;
    }
    double cost = exact_cost(w, sw_, mean_diff_);
    if (options_.local_search) {
      const auto polished = polish(w, sw_, model_, beta_, fmt_,
                                   options_.local_search_options);
      if (polished.has_value() && stats != nullptr) {
        stats->polish_exact_evals += polished->exact_evals;
      }
      if (polished.has_value() && polished->cost < cost) {
        w = polished->weights;
        cost = polished->cost;
      }
    }
    if (!std::isfinite(cost)) return std::nullopt;
    return std::make_pair(std::move(w), cost);
  }

 private:
  /// Intersects a child's t-interval with the interval-arithmetic range
  /// of (μ_A-μ_B)ᵀw over its w box (constraint propagation).
  void tighten_t(opt::Box& box) const {
    opt::Box wbox{std::vector<opt::Interval>(dim_)};
    for (std::size_t m = 0; m < dim_; ++m) wbox[m] = box[m];
    const opt::Interval range = initial_t_interval(mean_diff_, wbox);
    box[dim_].lo = std::max(box[dim_].lo, range.lo);
    box[dim_].hi = std::min(box[dim_].hi, range.hi);
  }

  /// Node view over the shared structure: O(m) — only the w box and the
  /// two t-interval right-hand sides differ between nodes.
  opt::ConvexProblem build_relaxation(const opt::Box& box) const {
    opt::Box wbox{std::vector<opt::Interval>(dim_)};
    for (std::size_t m = 0; m < dim_; ++m) wbox[m] = box[m];
    opt::ConvexProblem problem(structure_, std::move(wbox));
    const opt::Interval tv = box[dim_];
    problem.set_linear_rhs(0, tv.hi);    // dᵀw <= u_t
    problem.set_linear_rhs(1, -tv.lo);   // -dᵀw <= -l_t
    return problem;
  }

  /// Warm-start seed for this node: the parent's relaxation optimum
  /// clamped strictly inside the node's w box.  A pure function of
  /// (ctx, box), so it preserves the thread-invariance contract.  The
  /// seed may still violate the node's t rows or a SOC (the solver then
  /// falls back to phase I); clamping only repairs the box part.
  std::optional<linalg::Vector> make_seed(const opt::BoundContext& ctx,
                                          const opt::Box& box) const {
    if (ctx.parent_relaxation == nullptr ||
        ctx.parent_relaxation->size() != dim_) {
      return std::nullopt;
    }
    linalg::Vector seed = *ctx.parent_relaxation;
    const auto clamp_into_box = [&] {
      for (std::size_t m = 0; m < dim_; ++m) {
        const double lo = box[m].lo;
        const double hi = box[m].hi;
        const double width = hi - lo;
        if (width <= 0.0) {
          // Degenerate interval: the solver inflates it centered on the
          // midpoint, so the midpoint stays strictly interior.
          seed[m] = 0.5 * (lo + hi);
          continue;
        }
        const double margin = std::min(1e-7, 0.25 * width);
        seed[m] = std::min(std::max(seed[m], lo + margin), hi - margin);
      }
    };
    clamp_into_box();
    // Repair the t rows: after a t-split the parent's t = dᵀw usually
    // falls outside one child's interval, which would force a cold
    // solve.  Shift along d (the minimum-norm correction) so t lands
    // strictly inside, then re-clamp — if the clamp pushes t back out,
    // the solver's phase I fallback still guarantees correctness.
    const opt::Interval tv = box[dim_];
    if (tv.width() > 0.0) {
      const double t_now = linalg::dot(mean_diff_, seed);
      const double t_margin = std::min(1e-7, 0.25 * tv.width());
      const double t_target =
          std::min(std::max(t_now, tv.lo + t_margin), tv.hi - t_margin);
      if (t_target != t_now) {
        const double dd = linalg::dot(mean_diff_, mean_diff_);
        if (dd > 0.0) {
          seed.axpy((t_target - t_now) / dd, mean_diff_);
          clamp_into_box();
        }
      }
    }
    return seed;
  }

  /// One solver workspace per thread: bound() may run concurrently from
  /// speculation workers, and each solve needs exclusive scratch.
  static opt::SolverWorkspace& thread_workspace() {
    static thread_local opt::SolverWorkspace ws;
    return ws;
  }

  const stats::TwoClassModel& model_;
  linalg::Matrix sw_;
  linalg::Vector mean_diff_;
  fixed::FixedFormat fmt_;
  double beta_;
  LdaFpOptions options_;
  double min_t_width_;
  std::size_t dim_ = 0;
  double lambda_min_ = 0.0;
  /// Immutable relaxation structure shared by every node view.
  std::shared_ptr<const opt::ProblemStructure> structure_;
};

}  // namespace

Status LdaFpOptions::validate() const {
  if (!(rho >= 0.0 && rho < 1.0)) {
    return Status::invalid("ldafp: confidence level rho must lie in [0, 1)");
  }
  return bnb.validate();
}

LdaFpTrainer::LdaFpTrainer(fixed::FixedFormat format, LdaFpOptions options)
    : format_(format), options_(std::move(options)) {
  throw_if_error(options_.validate());
}

LdaFpResult LdaFpTrainer::train(const TrainingSet& data) const {
  LDAFP_CHECK(data.valid(), "training set must have samples in both classes");
  support::WallTimer timer;
  // Tracing seam: pure observation, never consulted by the search, so a
  // sink cannot perturb weights/bounds/counters (tests/obs cross-check).
  obs::Tracer* tracer = obs::tracer_of(options_.bnb.sink);
  obs::ScopedSpan train_span(tracer, "ldafp.train");
  std::optional<obs::ScopedSpan> stage;
  stage.emplace(tracer, "ldafp.prepare");

  // Algorithm 1, steps 1-2: quantize the data, fit the statistics.
  const TrainingSet quantized = quantize_training_set(data, format_);
  const stats::TwoClassModel model =
      fit_two_class_model(quantized, options_.covariance);
  const linalg::Matrix sw = model.within_class_scatter();
  const linalg::Vector mean_diff = model.mean_difference();

  LdaFpResult result;
  result.beta = stats::confidence_beta(options_.rho);

  // Step 3: root box from Eq. 28 tightened by Eq. 18, and Eq. 29 for t.
  opt::Box w_box = feasible_weight_box(model, result.beta, format_);
  for (std::size_t m = 0; m < w_box.size(); ++m) {
    // Grid-aligned hull: keeps every split grid-aligned.
    w_box[m].lo = fixed::grid_ceil(w_box[m].lo, format_);
    w_box[m].hi = fixed::grid_floor(w_box[m].hi, format_);
  }
  // Restrict to t >= 0: the cost is symmetric under w -> -w, and only the
  // t > 0 orientation classifies class A on the correct side of Eq. 12.
  // This also halves the search space.
  opt::Interval t_root = initial_t_interval(mean_diff, w_box);
  t_root.lo = std::max(t_root.lo, 0.0);
  t_root.hi = std::max(t_root.hi, 0.0);

  std::vector<opt::Interval> dims;
  dims.reserve(w_box.size() + 1);
  for (std::size_t m = 0; m < w_box.size(); ++m) dims.push_back(w_box[m]);
  dims.push_back(t_root);
  const opt::Box root(std::move(dims));

  LdaFpSearchProblem problem(model, sw, format_, result.beta, options_,
                             std::max(t_root.width(), 1e-12));
  stage.emplace(tracer, "ldafp.warm_start");

  // Warm-start incumbent from the conventional baseline.
  std::optional<std::pair<linalg::Vector, double>> incumbent;
  if (options_.warm_start_from_lda) {
    try {
      const LdaModel lda = fit_lda(quantized, options_.covariance);
      const FixedClassifier baseline = quantize_lda(
          lda, model, result.beta, format_, LdaGainPolicy::kOverflowAware,
          options_.rounding);
      incumbent = problem.try_candidate(baseline.weights_real());
    } catch (const Error& e) {
      support::log_warn(std::string("LDA warm start failed: ") + e.what());
    }
  }

  // Steps 4-6: the branch-and-bound search.
  stage.reset();  // the search traces itself as "bnb.run"
  const opt::BnbSolver solver(options_.bnb);
  result.search = solver.run(problem, root, incumbent);
  result.train_seconds = timer.seconds();

  if (!result.search.best_point.has_value()) return result;  // not found
  result.weights = *result.search.best_point;
  result.cost = result.search.best_value;
  result.threshold =
      0.5 * (linalg::dot(result.weights, model.class_a.mu()) +
             linalg::dot(result.weights, model.class_b.mu()));
  return result;
}

FixedClassifier LdaFpTrainer::make_classifier(
    const LdaFpResult& result) const {
  LDAFP_CHECK(result.found(), "training did not find a feasible classifier");
  return FixedClassifier(format_, result.weights, result.threshold,
                         options_.rounding);
}

}  // namespace ldafp::core
