// Finite-difference step control and the two stability questions of the
// flow-control map (§2.4.3, §3.3, Theorem 4).
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
// stability.hpp), whose dense path materializes DF from the Jacobian
// operator it picks. This header keeps the step type every finite
// difference of F shares, the one-sided unilateral analysis at fairness
// kinks, and the Theorem-4 structure check.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "linalg/matrix.hpp"

namespace ffc::core {

/// Step control for every finite difference of F: the matrix-free operator
/// (spectral/operator.hpp) and unilateral_stability's one-sided diagonal.
///
/// The default step balances O(h^2) truncation against the roundoff noise
/// floor, which at large N is dominated by the O(N)-term load sums inside
/// the model (measured ~1e-12/h relative at N = 1e5, so h = 1e-5 leaves
/// ~1e-7 relative accuracy in the Jacobian action -- docs/SCALING.md).
struct JvpOptions {
  double relative_step = 1e-5;  ///< h ~ relative_step * rate scale
  double step_floor = 1e-7;     ///< absolute floor for the nominal step

  /// Throws std::invalid_argument unless both values are finite and > 0: a
  /// zero or NaN step turns every difference quotient into 0 or NaN, and a
  /// negative one flips the probes, so a bad step would otherwise surface
  /// as a wrong derivative (or a misleading rate error), not as an error.
  /// `caller` prefixes the message.
  void validate(const char* caller) const;
};

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

/// Computes both one-sided diagonal derivatives at `rates` from 2N + 1
/// model evaluations along +-e_i (step h_i = max(relative_step |r_i|,
/// step_floor)), in O(N) memory. Validates the options and the rates;
/// throws std::invalid_argument at a rate pinned at 0, which has no
/// downward branch.
UnilateralReport unilateral_stability(const FlowControlModel& model,
                                      const std::vector<double>& rates,
                                      const JvpOptions& options = {});

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
