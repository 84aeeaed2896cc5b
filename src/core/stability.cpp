#include "core/stability.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace ffc::core {

void JvpOptions::validate(const char* caller) const {
  for (const double v : {relative_step, step_floor}) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument(
          std::string(caller) +
          ": relative_step and step_floor must be finite and > 0");
    }
  }
}

UnilateralReport unilateral_stability(const FlowControlModel& model,
                                      const std::vector<double>& rates,
                                      const JvpOptions& options) {
  options.validate("unilateral_stability");
  // The checked base evaluation validates the rates; every probe differs
  // from them in one finite coordinate and takes the unchecked path.
  ModelWorkspace ws;
  const std::vector<double> base = model.step(rates, ws);
  const std::size_t n = rates.size();
  std::vector<double> probe = rates;
  UnilateralReport report;
  report.forward.resize(n);
  report.backward.resize(n);
  report.stable = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double h = std::max(options.relative_step * std::fabs(rates[i]),
                              options.step_floor);
    probe[i] = rates[i] + h;
    report.forward[i] = (model.step_unchecked(probe, ws)[i] - base[i]) / h;
    probe[i] = std::max(0.0, rates[i] - h);
    const double down = rates[i] - probe[i];
    if (down == 0.0) {
      throw std::invalid_argument(
          "unilateral_stability: degenerate step (rate pinned at 0)");
    }
    report.backward[i] =
        (base[i] - model.step_unchecked(probe, ws)[i]) / down;
    probe[i] = rates[i];
    if (std::fabs(report.forward[i]) >= 1.0 ||
        std::fabs(report.backward[i]) >= 1.0) {
      report.stable = false;
    }
  }
  return report;
}

bool is_triangular_under_rate_order(const linalg::Matrix& jac,
                                    const std::vector<double>& rates,
                                    double tol) {
  const std::size_t n = rates.size();
  if (jac.rows() != n || jac.cols() != n) {
    throw std::invalid_argument(
        "is_triangular_under_rate_order: size mismatch");
  }
  if (!(tol >= 0.0) || !std::isfinite(tol)) {
    throw std::invalid_argument(
        "is_triangular_under_rate_order: tol must be finite and >= 0");
  }
  if (!std::ranges::all_of(rates, [](double r) { return std::isfinite(r); })) {
    throw std::invalid_argument(
        "is_triangular_under_rate_order: rates must be finite");
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return rates[a] < rates[b];
  });
  // Lower-triangular in sorted coordinates: dF_i/dr_j == 0 whenever
  // r_j > r_i (entry above the diagonal). Ties are exempt on both sides.
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      if (rates[order[q]] == rates[order[p]]) continue;
      if (std::fabs(jac(order[p], order[q])) > tol) return false;
    }
  }
  return true;
}

}  // namespace ffc::core
