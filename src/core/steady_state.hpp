// Steady states of the flow-control map (§3.1-3.2).
//
// For a TSI rate adjuster with steady signal b_ss, steady state requires
// b_i = b_ss at every connection's bottleneck. The steady-state congestion
// at a bottleneck is C_ss = B^{-1}(b_ss) and, because the aggregate queue at
// a work-conserving gateway is g(rho), the bottleneck utilization is
// rho_ss = C_ss / (1 + C_ss).
//
// Theorem 2's proof constructs the UNIQUE fair steady state by a
// water-filling procedure: repeatedly pick the gateway beta minimizing
// mu^a_rem / N^a_rem, give each of its remaining connections the equal share
// rho_ss * mu^beta_rem / N^beta_rem, and subtract r_i / rho_ss from mu^a_rem
// along each frozen connection's path.
#pragma once

#include <cstddef>
#include <vector>

#include "core/model.hpp"

namespace ffc::core {

/// rho_ss: the bottleneck utilization at which a gateway emits exactly
/// `b_ss`. Throws std::invalid_argument unless b_ss is in (0, 1).
double steady_state_utilization(const SignalFunction& signal, double b_ss);

/// The unique fair steady state of Theorem 2's construction for a network
/// where every source targets bottleneck utilization rho_ss in (0, 1).
/// Returns one rate per connection.
std::vector<double> fair_steady_state(const network::Topology& topology,
                                      double rho_ss);

/// Convenience overload: reads b_ss from the model's (homogeneous TSI)
/// adjusters and rho_ss from its signal function. Throws if the model is not
/// homogeneous TSI.
std::vector<double> fair_steady_state(const FlowControlModel& model);

/// Options for the damped fixed-point iteration.
struct FixedPointOptions {
  std::size_t max_iterations = 20000;
  double tolerance = 1e-10;    ///< on the max-norm step size, relative to scale
  double damping = 1.0;        ///< r <- r + damping * (F(r) - r); 1 = plain
};

/// Result of a fixed-point search.
struct FixedPointResult {
  std::vector<double> rates;   ///< final iterate
  bool converged = false;
  std::size_t iterations = 0;
  double residual = 0.0;       ///< max-norm of F(r) - r at the final iterate
};

/// Iterates r <- r + damping (F(r) - r) from `initial` until the update is
/// below tolerance * max(1, |r|_inf) or the iteration budget runs out.
/// The initial vector is validated once; the loop then runs on the model's
/// unchecked allocation-free fast path. Throws std::invalid_argument unless
/// damping is in (0, 1], tolerance is finite and >= 0, and max_iterations
/// is at least 1. The budget is a plain loop bound: SIZE_MAX runs until
/// convergence.
FixedPointResult solve_fixed_point(const FlowControlModel& model,
                                   std::vector<double> initial,
                                   const FixedPointOptions& options = {});

/// Workspace overload for callers that solve many fixed points (sweeps,
/// bifurcation scans): reuses the caller's ModelWorkspace so repeated solves
/// perform no per-iteration heap allocation.
FixedPointResult solve_fixed_point(const FlowControlModel& model,
                                   std::vector<double> initial,
                                   const FixedPointOptions& options,
                                   ModelWorkspace& ws);

/// True iff |F(r) - r|_inf <= tol * max(1, |r|_inf).
bool is_steady_state(const FlowControlModel& model,
                     const std::vector<double>& rates, double tol = 1e-8);

}  // namespace ffc::core
