#include "oracles/feasibility.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "queueing/feasibility.hpp"

namespace ffc::oracles {

using queueing::g;

FeasibilityReport check_feasibility(const std::vector<double>& r,
                                    const std::vector<double>& q, double mu,
                                    double tol) {
  if (r.size() != q.size()) {
    throw std::invalid_argument("check_feasibility: size mismatch");
  }
  if (!(mu > 0.0)) {
    throw std::invalid_argument("check_feasibility: mu must be > 0");
  }
  const std::size_t n = r.size();
  FeasibilityReport report;
  if (n == 0) {
    report.conservation_ok = true;
    report.partial_sums_ok = true;
    return report;
  }

  // Order connections by increasing Q_i / r_i (packets with zero rate and
  // zero queue sort first; a zero-rate connection with a positive queue is
  // infeasible outright for a work-conserving server in steady state, but we
  // let the constraints catch that).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  auto ratio = [&](std::size_t i) {
    if (r[i] > 0.0) return q[i] / r[i];
    return q[i] > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ratio(a) < ratio(b); });

  double rho_prefix = 0.0;
  double q_prefix = 0.0;
  bool prefix_ok = true;
  double worst = 0.0;
  bool any_infinite = false;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    rho_prefix += r[i] / mu;
    q_prefix += q[i];
    any_infinite = any_infinite || std::isinf(q[i]);
    const double bound = g(std::min(rho_prefix, 1.0));
    if (std::isinf(bound)) {
      // Prefix load >= 1: any (possibly infinite) prefix queue total that is
      // itself infinite satisfies the bound; a finite total cannot.
      if (!std::isinf(q_prefix)) {
        prefix_ok = false;
        worst = std::min(worst, -std::numeric_limits<double>::infinity());
      }
      continue;
    }
    const double margin = q_prefix - bound;
    if (margin < -tol) prefix_ok = false;
    worst = std::min(worst, margin);
  }

  const double rho_total = rho_prefix;
  if (rho_total >= 1.0) {
    report.conservation_ok = any_infinite || std::isinf(q_prefix);
  } else {
    const double target = g(rho_total);
    report.conservation_ok = std::fabs(q_prefix - target) <=
                             tol * std::max(1.0, target);
  }
  report.partial_sums_ok = prefix_ok;
  report.worst_violation = worst;
  return report;
}

}  // namespace ffc::oracles
