// Immutable per-tree structure of the relaxed subproblem (Eq. 25).
//
// Every node of the LDA-FP branch-and-bound tree solves the *same*
// relaxation up to its variable box and the two t-interval right-hand
// sides: the objective Q, the SOC blocks Σⱼ, and the linear constraint
// normals never change while the tree is searched.  ProblemStructure owns
// those invariant pieces exactly once per tree; ConvexProblem node views
// share it by shared_ptr, so building the per-node problem costs O(m)
// instead of the former O(m²) deep copy of Q and four Σⱼ blocks.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace ldafp::opt {

/// One linear inequality aᵀw <= b.  `b` is the structure's default
/// right-hand side; node views may override it per node (the t-interval
/// rows of the LDA-FP relaxation do exactly that).
struct LinearConstraint {
  linalg::Vector a;
  double b = 0.0;
};

/// One smoothed second-order-cone constraint
/// beta * sqrt(wᵀ Sigma w + eps) + cᵀw <= d.
struct SocConstraint {
  double beta = 0.0;
  linalg::Matrix sigma;  ///< symmetric PSD
  linalg::Vector c;
  double d = 0.0;
  double eps = 1e-12;
};

/// The box-independent part of a ConvexProblem.  Built once, then shared
/// immutably (via shared_ptr<const ProblemStructure>) across every node
/// view of a branch-and-bound tree.
class ProblemStructure {
 public:
  /// Structure with objective wᵀQw.  Q must be square symmetric.
  explicit ProblemStructure(linalg::Matrix q);

  std::size_t dim() const { return q_.rows(); }

  const linalg::Matrix& objective_matrix() const { return q_; }

  /// Appends a linear inequality (dimension must match).
  void add_linear(LinearConstraint constraint);
  const std::vector<LinearConstraint>& linear() const { return linear_; }

  /// Appends a SOC constraint (dimension must match, beta >= 0, eps > 0).
  /// A Σ bitwise equal to an earlier cone's is recorded as shared, so
  /// the solver forms Σw once for both (LDA-FP's two cones per class).
  void add_soc(SocConstraint constraint);
  const std::vector<SocConstraint>& soc() const { return soc_; }

  /// Number of distinct Σ among the cones (bitwise comparison).
  std::size_t sigma_count() const { return sigma_cone_.size(); }
  /// Index, in [0, sigma_count()), of the distinct Σ cone j uses.
  std::size_t sigma_slot(std::size_t j) const { return sigma_slot_[j]; }
  /// Distinct Σ number k (the first cone's copy).
  const linalg::Matrix& sigma(std::size_t k) const {
    return soc_[sigma_cone_[k]].sigma;
  }

 private:
  linalg::Matrix q_;
  std::vector<LinearConstraint> linear_;
  std::vector<SocConstraint> soc_;
  std::vector<std::size_t> sigma_slot_;  ///< per cone: its distinct Σ
  std::vector<std::size_t> sigma_cone_;  ///< per distinct Σ: first cone
};

}  // namespace ldafp::opt
