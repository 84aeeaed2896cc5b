#include "queueing/feasibility.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace ffc::queueing {

double g(double x) {
  if (x < 0.0) throw std::invalid_argument("g: load must be nonnegative");
  if (x >= 1.0) return std::numeric_limits<double>::infinity();
  return x / (1.0 - x);
}

double g_inverse(double q) {
  if (q < 0.0) throw std::invalid_argument("g_inverse: queue must be >= 0");
  if (std::isinf(q)) return 1.0;
  return q / (1.0 + q);
}

double g_prime(double x) {
  if (x < 0.0) throw std::invalid_argument("g_prime: load must be nonnegative");
  if (x >= 1.0) return std::numeric_limits<double>::infinity();
  const double slack = 1.0 - x;
  return 1.0 / (slack * slack);
}

}  // namespace ffc::queueing
