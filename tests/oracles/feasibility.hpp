// The nonstalling-discipline feasibility constraints of §2.2, as a test
// oracle. With connections numbered so that Q_i / r_i is increasing, any
// queue-length function Q(r) realizable by a nonstalling service discipline
// satisfies
//
//   (a) conservation:  sum_i Q_i = g(sum_i r_i / mu)
//   (b) partial sums:  sum_{i<=k} Q_i >= g(sum_{i<=k} r_i / mu)  for all k
//
// [Cof80, Reg86 in the paper's bibliography]. g is the library's
// queueing::g (src/queueing/feasibility.hpp).
#pragma once

#include <vector>

namespace ffc::oracles {

/// Result of a feasibility check of a per-connection queue vector.
struct FeasibilityReport {
  bool conservation_ok = false;   ///< sum Q_i == g(rho_total) within tol
  bool partial_sums_ok = false;   ///< all prefix constraints hold within tol
  double worst_violation = 0.0;   ///< most negative margin observed
  bool feasible() const { return conservation_ok && partial_sums_ok; }
};

/// Checks the nonstalling-discipline feasibility constraints for queue
/// lengths `q` produced at a server of rate `mu` by sending rates `r`.
///
/// Infinite entries are allowed only when the corresponding prefix load is
/// >= 1 (the check then treats conservation as satisfied vacuously, since
/// g(rho_total) is also infinite).
FeasibilityReport check_feasibility(const std::vector<double>& r,
                                    const std::vector<double>& q, double mu,
                                    double tol = 1e-9);

}  // namespace ffc::oracles
