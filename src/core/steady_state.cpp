#include "core/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "queueing/feasibility.hpp"

namespace ffc::core {

double steady_state_utilization(const SignalFunction& signal, double b_ss) {
  if (!(b_ss > 0.0) || !(b_ss < 1.0)) {
    throw std::invalid_argument(
        "steady_state_utilization: b_ss must be in (0, 1)");
  }
  return queueing::g_inverse(signal.inverse(b_ss));
}

std::vector<double> fair_steady_state(const network::Topology& topology,
                                      double rho_ss) {
  if (!(rho_ss > 0.0) || !(rho_ss < 1.0)) {
    throw std::invalid_argument("fair_steady_state: rho_ss must be in (0,1)");
  }
  const std::size_t num_conn = topology.num_connections();
  const std::size_t num_gw = topology.num_gateways();

  std::vector<double> rates(num_conn, -1.0);  // -1 marks "not yet frozen"
  std::vector<double> mu_rem(num_gw);
  std::vector<std::size_t> n_rem(num_gw);
  for (network::GatewayId a = 0; a < num_gw; ++a) {
    mu_rem[a] = topology.gateway(a).mu;
    n_rem[a] = topology.fan_in(a);
  }

  std::size_t frozen = 0;
  while (frozen < num_conn) {
    // Pick the tightest remaining gateway.
    network::GatewayId beta = num_gw;
    double best = std::numeric_limits<double>::infinity();
    for (network::GatewayId a = 0; a < num_gw; ++a) {
      if (n_rem[a] == 0) continue;
      const double ratio = mu_rem[a] / static_cast<double>(n_rem[a]);
      if (ratio < best) {
        best = ratio;
        beta = a;
      }
    }
    if (beta == num_gw) {
      // No gateway carries an unfrozen connection, yet some connections are
      // unfrozen -- impossible because every path is nonempty.
      throw std::logic_error("fair_steady_state: dangling connections");
    }
    const double share = rho_ss * best;
    for (network::ConnectionId i : topology.connections_through(beta)) {
      if (rates[i] >= 0.0) continue;
      rates[i] = share;
      ++frozen;
      for (network::GatewayId a : topology.path(i)) {
        mu_rem[a] -= share / rho_ss;
        --n_rem[a];
      }
    }
  }
  return rates;
}

std::vector<double> fair_steady_state(const FlowControlModel& model) {
  if (!model.homogeneous_tsi()) {
    throw std::invalid_argument(
        "fair_steady_state: model must be homogeneous TSI");
  }
  const double b_ss = *model.adjuster(0).steady_signal();
  const double rho_ss = steady_state_utilization(model.signal(), b_ss);
  return fair_steady_state(model.topology(), rho_ss);
}

FixedPointResult solve_fixed_point(const FlowControlModel& model,
                                   std::vector<double> initial,
                                   const FixedPointOptions& options) {
  ModelWorkspace ws;
  return solve_fixed_point(model, std::move(initial), options, ws);
}

FixedPointResult solve_fixed_point(const FlowControlModel& model,
                                   std::vector<double> initial,
                                   const FixedPointOptions& options,
                                   ModelWorkspace& ws) {
  if (!(options.damping > 0.0) || options.damping > 1.0) {
    throw std::invalid_argument("solve_fixed_point: damping must be in (0,1]");
  }
  if (!(options.tolerance >= 0.0) || !std::isfinite(options.tolerance)) {
    throw std::invalid_argument(
        "solve_fixed_point: tolerance must be finite and >= 0");
  }
  if (options.max_iterations == 0) {
    // The first step is what validates `initial`; a zero budget would hand
    // it back unchecked.
    throw std::invalid_argument(
        "solve_fixed_point: max_iterations must be >= 1");
  }
  FixedPointResult result;
  result.rates = std::move(initial);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    // First step validates the initial vector; later iterates are damped
    // blends of validated data and model output, so the loop stays on the
    // unchecked fast path and allocates nothing.
    const std::vector<double>& next = it == 0
                                          ? model.step(result.rates, ws)
                                          : model.step_unchecked(result.rates,
                                                                 ws);
    double step_norm = 0.0;
    double scale = 1.0;
    for (std::size_t i = 0; i < next.size(); ++i) {
      step_norm = std::max(step_norm, std::fabs(next[i] - result.rates[i]));
      scale = std::max(scale, std::fabs(result.rates[i]));
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      result.rates[i] = std::max(
          0.0, result.rates[i] + options.damping * (next[i] - result.rates[i]));
    }
    result.iterations = it + 1;
    if (step_norm <= options.tolerance * scale) {
      result.converged = true;
      result.residual = step_norm;
      return result;
    }
    result.residual = step_norm;
  }
  return result;
}

bool is_steady_state(const FlowControlModel& model,
                     const std::vector<double>& rates, double tol) {
  const std::vector<double> next = model.step(rates);
  double scale = 1.0;
  for (double r : rates) scale = std::max(scale, std::fabs(r));
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (std::fabs(next[i] - rates[i]) > tol * scale) return false;
  }
  return true;
}

}  // namespace ffc::core
