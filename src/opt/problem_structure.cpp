#include "opt/problem_structure.h"

#include <cstring>

#include "support/error.h"

namespace ldafp::opt {

ProblemStructure::ProblemStructure(linalg::Matrix q) : q_(std::move(q)) {
  LDAFP_CHECK(q_.square(), "objective matrix must be square");
  LDAFP_CHECK(q_.is_symmetric(1e-9 * (1.0 + q_.norm_max())),
              "objective matrix must be symmetric");
}

void ProblemStructure::add_linear(LinearConstraint constraint) {
  LDAFP_CHECK(constraint.a.size() == dim(),
              "linear constraint dimension mismatch");
  linear_.push_back(std::move(constraint));
}

void ProblemStructure::add_soc(SocConstraint constraint) {
  LDAFP_CHECK(constraint.sigma.square() &&
                  constraint.sigma.rows() == dim() &&
                  constraint.c.size() == dim(),
              "soc constraint dimension mismatch");
  LDAFP_CHECK(constraint.beta >= 0.0, "soc beta must be non-negative");
  LDAFP_CHECK(constraint.eps > 0.0, "soc eps must be positive");
  const std::size_t bytes = dim() * dim() * sizeof(double);
  std::size_t slot = 0;
  while (slot < sigma_cone_.size() &&
         std::memcmp(sigma(slot).data(), constraint.sigma.data(), bytes) !=
             0) {
    ++slot;
  }
  if (slot == sigma_cone_.size()) sigma_cone_.push_back(soc_.size());
  sigma_slot_.push_back(slot);
  soc_.push_back(std::move(constraint));
}

}  // namespace ldafp::opt
