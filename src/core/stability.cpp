#include "core/stability.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace ffc::core {

void validate_step_options(double relative_step, double step_floor,
                           const char* caller) {
  for (const double v : {relative_step, step_floor}) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument(
          std::string(caller) +
          ": relative_step and step_floor must be finite and > 0");
    }
  }
}

linalg::Matrix jacobian(const FlowControlModel& model,
                        const std::vector<double>& rates,
                        const JacobianOptions& options) {
  validate_step_options(options.relative_step, options.step_floor,
                        "jacobian");
  const std::size_t n = rates.size();
  if (n != model.topology().num_connections()) {
    throw std::invalid_argument("jacobian: rate vector size mismatch");
  }
  linalg::Matrix df(n, n);
  std::vector<double> probe = rates;
  // 2n F evaluations share one workspace; the first probe (rates with one
  // coordinate nudged) carries the boundary validation for the whole batch,
  // since every later probe differs from it only in one finite coordinate.
  ModelWorkspace ws;
  bool validated = false;
  std::vector<double> f_plus, f_minus;
  const auto eval = [&](std::vector<double>& out) {
    out = validated ? model.step_unchecked(probe, ws) : model.step(probe, ws);
    validated = true;
  };
  for (std::size_t j = 0; j < n; ++j) {
    const double h =
        options.relative_step * std::max(std::fabs(rates[j]),
                                         options.step_floor /
                                             options.relative_step);
    double denom = 0.0;
    switch (options.scheme) {
      case JacobianOptions::Scheme::Central: {
        probe[j] = rates[j] + h;
        eval(f_plus);
        probe[j] = std::max(0.0, rates[j] - h);
        eval(f_minus);
        denom = (rates[j] + h) - probe[j];
        probe[j] = rates[j];
        break;
      }
      case JacobianOptions::Scheme::Forward: {
        probe[j] = rates[j] + h;
        eval(f_plus);
        probe[j] = rates[j];
        eval(f_minus);
        denom = h;
        break;
      }
      case JacobianOptions::Scheme::Backward: {
        probe[j] = rates[j];
        eval(f_plus);
        probe[j] = std::max(0.0, rates[j] - h);
        eval(f_minus);
        denom = rates[j] - probe[j];
        probe[j] = rates[j];
        break;
      }
    }
    if (denom == 0.0) {
      throw std::invalid_argument("jacobian: degenerate step (rate pinned at 0)");
    }
    for (std::size_t i = 0; i < n; ++i) {
      df(i, j) = (f_plus[i] - f_minus[i]) / denom;
    }
  }
  return df;
}

UnilateralReport unilateral_stability(const FlowControlModel& model,
                                      const std::vector<double>& rates,
                                      const JacobianOptions& options) {
  UnilateralReport report;
  JacobianOptions fwd = options;
  fwd.scheme = JacobianOptions::Scheme::Forward;
  JacobianOptions bwd = options;
  bwd.scheme = JacobianOptions::Scheme::Backward;
  const linalg::Matrix jf = jacobian(model, rates, fwd);
  const linalg::Matrix jb = jacobian(model, rates, bwd);
  const std::size_t n = rates.size();
  report.forward.resize(n);
  report.backward.resize(n);
  report.stable = true;
  for (std::size_t i = 0; i < n; ++i) {
    report.forward[i] = jf(i, i);
    report.backward[i] = jb(i, i);
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
