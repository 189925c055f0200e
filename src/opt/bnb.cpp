#include "opt/bnb.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "sched/task_group.h"
#include "support/error.h"
#include "support/str.h"
#include "support/timer.h"

namespace ldafp::opt {
namespace {

/// Absolute floor of the stopping gap, beside BnbOptions::rel_gap: a
/// search whose incumbent is near zero still stops once the bounds meet.
constexpr double kAbsGap = 1e-9;

// ---------------------------------------------------------------------------
// Deterministic speculative parallelism.
//
// Expanding a node — solve_terminal for terminal boxes, branch + bound
// of both children otherwise — reads nothing but the box (the
// BnbProblem concurrency contract), so it can run speculatively on any
// thread, in any order, even for nodes that end up pruned.  Everything
// that touches search state (incumbent updates, pruning, pushes,
// budgets, status) happens on the one control thread, in the exact
// order the sequential search would use; an Expansion is the plain-data
// courier between the two.  That split is why the parallel search is
// bit-identical to the sequential one at every thread count: thread
// scheduling can only change *when* an expansion is computed, never
// what it contains nor the order its effects are committed.

/// Speculation slot lifecycle.
enum SpecStage : int {
  kSpecIdle = 0,     ///< nobody is expanding this node yet
  kSpecClaimed = 1,  ///< one thread owns the expansion
  kSpecDone = 2,     ///< expansion (or a skip) is published
};

struct Expansion {
  /// False when a speculator skipped the node (hopeless bound at claim
  /// time); the control thread then expands inline, so skips are a pure
  /// performance decision and never change results.
  bool computed = false;
  bool terminal = false;
  NodeBounds exact;  ///< terminal payload
  struct Child {
    bool present = false;  ///< branch produced a non-empty box here
    Box box;
    NodeBounds bounds;
  };
  Child children[2];  ///< non-terminal payload, [0]=left, [1]=right
  std::exception_ptr error;
};

/// One frontier node's box plus its speculation slot.  `seed` is the
/// node's own relaxation optimum (the warm start handed to its
/// children's bound() calls); it is written once, before the node is
/// fueled to workers, and read-only afterwards.
struct SpecState {
  SpecState(Box b, double l) : box(std::move(b)), lower(l) {}
  Box box;
  double lower;
  std::optional<linalg::Vector> seed;
  std::atomic<int> stage{kSpecIdle};
  Expansion expansion;
};

struct QueueNode {
  double lower;
  std::shared_ptr<SpecState> spec;
};

struct LowerBoundGreater {
  bool operator()(const QueueNode& a, const QueueNode& b) const {
    return a.lower > b.lower;  // min-heap on lower bound
  }
};

using Frontier =
    std::priority_queue<QueueNode, std::vector<QueueNode>, LowerBoundGreater>;

/// The expansion itself — identical arithmetic on every path.  The
/// bound/consider/push interleaving of the original sequential loop is
/// reassociated here (both children are bounded before any incumbent
/// update), which is observationally identical because bound() never
/// reads search state.
Expansion expand_node(BnbProblem& problem, const SpecState& state) {
  Expansion e;
  e.computed = true;
  BoundContext ctx;
  if (state.seed.has_value()) ctx.parent_relaxation = &*state.seed;
  try {
    if (problem.is_terminal(state.box)) {
      e.terminal = true;
      e.exact = problem.solve_terminal(state.box);
    } else {
      auto [left, right] = problem.branch(state.box);
      Box* children[2] = {&left, &right};
      for (int k = 0; k < 2; ++k) {
        if (children[k]->empty()) continue;
        e.children[k].present = true;
        e.children[k].bounds = problem.bound(*children[k], ctx);
        e.children[k].box = std::move(*children[k]);
      }
    }
  } catch (...) {
    e.error = std::current_exception();
  }
  return e;
}

/// Runs speculative expansions on the executor's pool.  The control
/// thread feeds it frontier nodes; workers claim the most promising
/// backlog entries (ordering is advisory — correctness never depends on
/// which entries workers pick, because obtain() falls back to inline
/// expansion for anything unclaimed or skipped).  Pool tasks are
/// one-shot steps that resubmit themselves, so a helping thread is
/// never trapped in a long drain loop.  The TaskGroup member joins all
/// in-flight steps before the engine (and the borrowed problem
/// reference) goes out of scope.
class SpecEngine {
 public:
  SpecEngine(BnbProblem& problem, const sched::Executor& executor)
      : problem_(problem), executor_(executor), group_(executor) {}

  ~SpecEngine() { shutdown(); }

  bool parallel() const { return executor_.parallel(); }

  /// Adds a frontier node to the speculation backlog and tops up the
  /// self-resubmitting worker steps.  No-op on inline executors.
  void fuel(std::shared_ptr<SpecState> state) {
    if (!parallel()) return;
    {
      std::lock_guard lock(mu_);
      heap_.push_back(std::move(state));
      std::push_heap(heap_.begin(), heap_.end(), LowerGreater{});
    }
    if (active_.load() < executor_.threads()) {
      active_.fetch_add(1);
      group_.run([this] { step(); });
    }
  }

  /// Mirrors the control thread's committed prune threshold; workers
  /// skip backlog entries above it (advisory only).
  void publish_threshold(double threshold) {
    advisory_threshold_.store(threshold);
  }

  /// The control thread's single entry point: expands inline when the
  /// node is unclaimed (or was skipped), otherwise helps the pool until
  /// the in-flight speculative expansion is published.
  Expansion obtain(SpecState& state) {
    if (parallel()) {
      int expected = kSpecIdle;
      if (!state.stage.compare_exchange_strong(expected, kSpecClaimed)) {
        sched::ThreadPool* pool = executor_.pool();
        while (state.stage.load() != kSpecDone) {
          if (pool == nullptr || !pool->try_run_one()) {
            state.stage.wait(kSpecClaimed);
          }
        }
        if (state.expansion.computed) return std::move(state.expansion);
        // Speculator published a skip: expand inline below.
      }
    }
    return expand_node(problem_, state);
  }

  /// Stops speculation and joins in-flight steps.  Safe to call twice.
  void shutdown() {
    stop_.store(true);
    {
      std::lock_guard lock(mu_);
      heap_.clear();
    }
    group_.wait();  // our steps never throw (expand_node catches)
  }

 private:
  struct LowerGreater {
    bool operator()(const std::shared_ptr<SpecState>& a,
                    const std::shared_ptr<SpecState>& b) const {
      return a->lower > b->lower;
    }
  };

  std::shared_ptr<SpecState> pop_best() {
    std::lock_guard lock(mu_);
    if (heap_.empty()) return nullptr;
    std::pop_heap(heap_.begin(), heap_.end(), LowerGreater{});
    std::shared_ptr<SpecState> out = std::move(heap_.back());
    heap_.pop_back();
    return out;
  }

  void step() {
    if (!stop_.load()) {
      if (std::shared_ptr<SpecState> state = pop_best()) {
        int expected = kSpecIdle;
        if (state->stage.compare_exchange_strong(expected, kSpecClaimed)) {
          if (!stop_.load() &&
              state->lower <= advisory_threshold_.load()) {
            state->expansion = expand_node(problem_, *state);
          }  // else: leave computed == false (a published skip)
          state->stage.store(kSpecDone);
          state->stage.notify_all();
        }
        group_.run([this] { step(); });  // keep draining
        return;
      }
    }
    active_.fetch_sub(1);  // chain ends; fuel() revives it
  }

  BnbProblem& problem_;
  sched::Executor executor_;
  sched::TaskGroup group_;
  std::mutex mu_;
  std::vector<std::shared_ptr<SpecState>> heap_;
  std::atomic<double> advisory_threshold_{
      std::numeric_limits<double>::infinity()};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> active_{0};
};

}  // namespace

const char* to_string(BnbStatus status) {
  switch (status) {
    case BnbStatus::kOptimal: return "optimal";
    case BnbStatus::kNodeLimit: return "node-limit";
    case BnbStatus::kTimeLimit: return "time-limit";
    case BnbStatus::kNoSolution: return "no-solution";
  }
  return "?";
}

Status BnbOptions::validate() const {
  if (max_nodes < 1) {
    return Status::invalid("bnb: max_nodes must be at least 1");
  }
  // 0 is legal: an already-expired budget stops before the first node
  // (anytime semantics the parallel tests exercise).  Rejects negative
  // and NaN.
  if (!(max_seconds >= 0.0)) {
    return Status::invalid("bnb: max_seconds must be non-negative");
  }
  if (!(rel_gap >= 0.0)) {
    return Status::invalid("bnb: rel_gap must be non-negative");
  }
  return Status();
}

void publish(const NodeStats& stats, obs::MetricsRegistry& registry,
             const obs::Labels& labels) {
  registry.counter("solver.relaxations", labels).add(stats.relaxations);
  registry.counter("solver.phase1_skips", labels).add(stats.phase1_skips);
  registry.counter("solver.newton_iterations", labels)
      .add(stats.newton_iterations);
  registry.counter("solver.factorizations", labels)
      .add(stats.factorizations);
  registry.counter("solver.line_search_trials", labels)
      .add(stats.line_search_trials);
  registry.counter("solver.stage_limit_hits", labels)
      .add(stats.stage_limit_hits);
  registry.counter("solver.polish_exact_evals", labels)
      .add(stats.polish_exact_evals);
}

void publish(const BnbResult& result, obs::MetricsRegistry& registry,
             const obs::Labels& labels) {
  registry.counter("bnb.runs", labels).increment();
  registry.counter("bnb.nodes_processed", labels)
      .add(static_cast<std::uint64_t>(result.nodes_processed));
  registry.counter("bnb.nodes_pruned", labels)
      .add(static_cast<std::uint64_t>(result.nodes_pruned));
  registry.gauge("bnb.best_value", labels).set(result.best_value);
  registry.gauge("bnb.lower_bound", labels).set(result.lower_bound);
  registry.gauge("bnb.gap", labels).set(result.gap());
  registry.gauge("bnb.seconds", labels).add(result.seconds);
  publish(result.solver_stats, registry, labels);
}

BnbResult BnbSolver::run(
    BnbProblem& problem, const Box& root,
    const std::optional<std::pair<linalg::Vector, double>>&
        initial_incumbent) const {
  throw_if_error(options_.validate());
  // Observation wrapper: the search itself never touches the sink, so
  // attaching one cannot perturb results (tests/obs holds the
  // bit-identity cross-check at 1/2/4/8 threads).
  obs::ScopedSpan span(obs::tracer_of(options_.sink), "bnb.run");
  BnbResult result = run_search(problem, root, initial_incumbent);
  if (obs::MetricsRegistry* metrics = obs::metrics_of(options_.sink)) {
    publish(result, *metrics);
  }
  return result;
}

BnbResult BnbSolver::run_search(
    BnbProblem& problem, const Box& root,
    const std::optional<std::pair<linalg::Vector, double>>&
        initial_incumbent) const {
  LDAFP_CHECK(root.size() > 0, "bnb root box must be non-empty");
  support::WallTimer timer;

  BnbResult result;
  if (initial_incumbent.has_value()) {
    result.best_point = initial_incumbent->first;
    result.best_value = initial_incumbent->second;
  }

  SpecEngine engine(problem, options_.executor);
  Frontier queue;

  auto prune_threshold = [&]() {
    // A node whose lower bound exceeds this cannot improve the incumbent
    // beyond the requested gap.  With no incumbent yet, never prune.
    if (!std::isfinite(result.best_value)) {
      return std::numeric_limits<double>::infinity();
    }
    return result.best_value -
           std::max(kAbsGap,
                    options_.rel_gap * std::fabs(result.best_value));
  };

  auto consider_candidate = [&](const NodeBounds& bounds) {
    if (bounds.candidate.has_value() &&
        bounds.candidate_value < result.best_value) {
      result.best_point = bounds.candidate;
      result.best_value = bounds.candidate_value;
      engine.publish_threshold(prune_threshold());
    }
  };

  // Infeasible boxes report lower = +inf and must never enter the queue.
  auto should_push = [&](double lower) {
    return lower < std::numeric_limits<double>::infinity() &&
           lower <= prune_threshold();
  };

  auto push_node = [&](double lower, Box box,
                       std::optional<linalg::Vector> seed) {
    auto spec = std::make_shared<SpecState>(std::move(box), lower);
    if (options_.warm_start_relaxations) {
      spec->seed = std::move(seed);
    }
    queue.push(QueueNode{lower, spec});
    engine.fuel(std::move(spec));
  };

  // Root node (always a cold solve: no parent to inherit from).
  {
    NodeBounds bounds = problem.bound(root, BoundContext{});
    result.solver_stats += bounds.stats;
    consider_candidate(bounds);
    if (should_push(bounds.lower)) {
      push_node(bounds.lower, root, std::move(bounds.relaxation_point));
    }
  }

  result.lower_bound = result.best_value;  // adjusted below while queue live

  while (!queue.empty()) {
    if (result.nodes_processed >= options_.max_nodes) {
      result.status = BnbStatus::kNodeLimit;
      result.lower_bound = std::min(queue.top().lower, result.best_value);
      result.seconds = timer.seconds();
      return result;
    }
    if (timer.seconds() > options_.max_seconds) {
      result.status = BnbStatus::kTimeLimit;
      result.lower_bound = std::min(queue.top().lower, result.best_value);
      result.seconds = timer.seconds();
      return result;
    }

    const QueueNode node = queue.top();
    queue.pop();
    ++result.nodes_processed;

    // Best-first invariant: the queue head carries the global lower
    // bound.  If it cannot beat the incumbent, the search is done.
    if (node.lower > prune_threshold()) {
      ++result.nodes_pruned;
      result.lower_bound = std::min(node.lower, result.best_value);
      result.status = BnbStatus::kOptimal;
      result.seconds = timer.seconds();
      return result;
    }

    Expansion expansion = engine.obtain(*node.spec);
    if (expansion.error) {
      std::rethrow_exception(expansion.error);
    }

    if (expansion.terminal) {
      result.solver_stats += expansion.exact.stats;
      consider_candidate(expansion.exact);
      continue;  // terminal boxes are fully resolved
    }

    for (Expansion::Child& child : expansion.children) {
      if (!child.present) continue;
      result.solver_stats += child.bounds.stats;
      consider_candidate(child.bounds);
      if (should_push(child.bounds.lower)) {
        push_node(child.bounds.lower, std::move(child.box),
                  std::move(child.bounds.relaxation_point));
      } else {
        ++result.nodes_pruned;
      }
    }
  }

  // Queue drained: the incumbent is optimal over the root box.
  result.lower_bound = result.best_value;
  result.status = result.best_point.has_value() ? BnbStatus::kOptimal
                                                : BnbStatus::kNoSolution;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace ldafp::opt
