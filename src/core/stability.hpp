// Finite-difference Jacobians of the flow-control map (§2.4.3, §3.3,
// Theorem 4).
//
// A steady state r_ss of r̂ = F(r) is linearly stable when all eigenvalues
// of the Jacobian DF_ij = dF_i/dr_j have magnitude < 1 (deviations along a
// steady-state manifold -- eigenvalues at exactly 1 -- are exempt). The
// paper contrasts
//   * unilateral stability:  |DF_ii| < 1 for every i (each source, holding
//     the others fixed, damps its own deviations), with
//   * systemic stability:    spectral radius of DF < 1.
// Theorem 4: with individual feedback and Fair Share service, DF is
// triangular under the sort-by-rate permutation, so its eigenvalues ARE the
// diagonal entries and unilateral stability implies systemic stability.
//
// Both verdicts come from spectral::spectral_stability (spectral/
// stability.hpp), whose dense path materializes DF through jacobian()
// here. This header keeps the FD oracle itself, the one-sided unilateral
// analysis at fairness kinks, and the Theorem-4 structure check.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "linalg/matrix.hpp"

namespace ffc::core {

/// Options for the finite-difference Jacobian.
struct JacobianOptions {
  double relative_step = 1e-6;  ///< h_j = relative_step * max(r_j, floor)
  double step_floor = 1e-7;     ///< absolute floor for the step
  /// MAX/MIN terms in b_i and C^a_i make F only piecewise-smooth; one-sided
  /// differences probe the dynamics on the chosen side of a kink.
  enum class Scheme { Central, Forward, Backward } scheme = Scheme::Central;
};

/// Throws std::invalid_argument unless a finite-difference step's
/// `relative_step` and `step_floor` are both finite and > 0: a zero or NaN
/// step turns every difference quotient into 0 or NaN, and a negative one
/// flips the probes, so a bad step would otherwise surface as a wrong
/// Jacobian (or a misleading rate error), not as an error. `caller` prefixes
/// the message.
void validate_step_options(double relative_step, double step_floor,
                           const char* caller);

/// Numerical Jacobian of F at `rates`. Validates the step options.
linalg::Matrix jacobian(const FlowControlModel& model,
                        const std::vector<double>& rates,
                        const JacobianOptions& options = {});

/// One-sided unilateral stability analysis.
///
/// At a fair steady state, connections sharing a bottleneck have TIED rates,
/// so the map F sits exactly on a MAX/MIN kink and has different one-sided
/// derivatives: moving r_i up makes it the largest of its tie group (weak
/// self-coupling), moving it down makes it the smallest (strong
/// self-coupling, dC_i/dr_i ~ N g'(rho)/mu). Unilateral stability in the
/// paper's sense -- "any small initial deviation of r_i alone dissipates" --
/// therefore requires BOTH branch multipliers to lie inside the unit circle.
struct UnilateralReport {
  std::vector<double> forward;   ///< dF_i/dr_i, upward branch
  std::vector<double> backward;  ///< dF_i/dr_i, downward branch
  bool stable = false;           ///< all |.| < 1 on both branches
};

/// Computes both one-sided diagonal derivatives at `rates`.
UnilateralReport unilateral_stability(const FlowControlModel& model,
                                      const std::vector<double>& rates,
                                      const JacobianOptions& options = {});

/// True iff there is a permutation `perm` ordering the connections by
/// increasing rate for which jacobian(perm, perm) is lower-triangular within
/// `tol` -- the structure Theorem 4 exploits for Fair Share gateways.
/// Throws std::invalid_argument on a size mismatch, a NaN, infinite or
/// negative `tol`, or a non-finite rate (a NaN tolerance would pass every
/// matrix, a NaN rate breaks the sort's ordering).
bool is_triangular_under_rate_order(const linalg::Matrix& jacobian,
                                    const std::vector<double>& rates,
                                    double tol = 1e-6);

}  // namespace ffc::core
