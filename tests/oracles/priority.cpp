#include "oracles/priority.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "queueing/feasibility.hpp"

namespace ffc::oracles {

using queueing::g;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

std::vector<double> preemptive_priority_occupancy(
    const std::vector<double>& class_rates, double mu) {
  if (!(mu > 0.0)) {
    throw std::invalid_argument("preemptive_priority: mu must be > 0");
  }
  std::vector<double> occupancy(class_rates.size(), 0.0);
  double sigma = 0.0;
  double cumulative = 0.0;  // g(sigma_{j-1})
  for (std::size_t j = 0; j < class_rates.size(); ++j) {
    if (!(class_rates[j] >= 0.0)) {
      throw std::invalid_argument("preemptive_priority: rates must be >= 0");
    }
    sigma += class_rates[j] / mu;
    if (sigma >= 1.0) {
      occupancy[j] = class_rates[j] > 0.0 ? kInf : 0.0;
      cumulative = kInf;
      continue;
    }
    const double total = g(sigma);
    occupancy[j] = total - cumulative;
    cumulative = total;
  }
  return occupancy;
}

std::vector<double> preemptive_priority_sojourn(
    const std::vector<double>& class_rates, double mu) {
  const std::vector<double> occ =
      preemptive_priority_occupancy(class_rates, mu);
  std::vector<double> w(occ.size());
  double sigma_prev = 0.0;
  double sigma = 0.0;
  for (std::size_t j = 0; j < occ.size(); ++j) {
    sigma_prev = sigma;
    sigma += class_rates[j] / mu;
    if (std::isinf(occ[j])) {
      w[j] = kInf;
    } else if (class_rates[j] > 0.0) {
      w[j] = occ[j] / class_rates[j];
    } else {
      // Limit of W_j as lambda_j -> 0: d g(sigma)/d lambda at sigma_prev,
      // i.e. 1 / (mu (1 - sigma_prev)^2).
      w[j] = sigma_prev >= 1.0
                 ? kInf
                 : 1.0 / (mu * (1.0 - sigma_prev) * (1.0 - sigma_prev));
    }
  }
  return w;
}

}  // namespace ffc::oracles
