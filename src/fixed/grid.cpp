#include "fixed/grid.h"

#include <cmath>

#include "support/error.h"

namespace ldafp::fixed {

linalg::Vector snap_to_grid(const linalg::Vector& v, const FixedFormat& fmt,
                            RoundingMode mode) {
  linalg::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = fmt.round_to_grid(v[i], mode);
  }
  return out;
}

bool on_grid(const linalg::Vector& v, const FixedFormat& fmt) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!fmt.representable(v[i])) return false;
  }
  return true;
}

double grid_floor(double x, const FixedFormat& fmt) {
  if (x <= fmt.min_value()) return fmt.min_value();
  if (x >= fmt.max_value()) return fmt.max_value();
  const double scaled = std::ldexp(x, fmt.frac_bits());
  return std::ldexp(std::floor(scaled), -fmt.frac_bits());
}

double grid_ceil(double x, const FixedFormat& fmt) {
  if (x <= fmt.min_value()) return fmt.min_value();
  if (x >= fmt.max_value()) return fmt.max_value();
  const double scaled = std::ldexp(x, fmt.frac_bits());
  return std::ldexp(std::ceil(scaled), -fmt.frac_bits());
}

std::int64_t grid_count(double lo, double hi, const FixedFormat& fmt) {
  LDAFP_CHECK(lo <= hi, "grid_count requires lo <= hi");
  // Clip to the representable range first.
  const double clo = std::max(lo, fmt.min_value());
  const double chi = std::min(hi, fmt.max_value());
  if (clo > chi) return 0;
  const auto first = static_cast<std::int64_t>(
      std::ceil(std::ldexp(clo, fmt.frac_bits()) - 1e-12));
  const auto last = static_cast<std::int64_t>(
      std::floor(std::ldexp(chi, fmt.frac_bits()) + 1e-12));
  return last < first ? 0 : last - first + 1;
}

std::vector<double> grid_points(double lo, double hi, const FixedFormat& fmt,
                                std::int64_t max_points) {
  const std::int64_t count = grid_count(lo, hi, fmt);
  LDAFP_CHECK(count <= max_points, "grid_points: interval has too many points");
  std::vector<double> out;
  if (count == 0) return out;
  out.reserve(static_cast<std::size_t>(count));
  const double clo = std::max(lo, fmt.min_value());
  const auto first = static_cast<std::int64_t>(
      std::ceil(std::ldexp(clo, fmt.frac_bits()) - 1e-12));
  for (std::int64_t i = 0; i < count; ++i) {
    out.push_back(std::ldexp(static_cast<double>(first + i),
                             -fmt.frac_bits()));
  }
  return out;
}

}  // namespace ldafp::fixed
