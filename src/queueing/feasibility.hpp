// The paper's queueing primitives and feasibility constraints (§2.2).
//
// g(x) = x / (1 - x) is the mean number in system of an M/M/1 queue at load
// x. Any queue-length function Q(r) realizable by a nonstalling service
// discipline must satisfy (with connections numbered so that Q_i / r_i is
// increasing):
//
//   (a) conservation:  sum_i Q_i = g(sum_i r_i / mu)
//   (b) partial sums:  sum_{i<=k} Q_i >= g(sum_{i<=k} r_i / mu)  for all k
//
// [Cof80, Reg86 in the paper's bibliography]. The constraint check itself
// is a test oracle (tests/oracles/feasibility.hpp); the library keeps g and
// its inverse and slope, which the model and its Jacobians are built on.
#pragma once

namespace ffc::queueing {

/// Mean number in system of an M/M/1 queue at utilization `x`.
/// Returns +infinity for x >= 1; throws std::invalid_argument for x < 0.
double g(double x);

/// Inverse of g on [0, 1): the utilization that yields mean queue `q`.
/// g_inverse(g(x)) == x for x in [0, 1). Accepts +infinity (returns 1).
/// Throws std::invalid_argument for q < 0.
double g_inverse(double q);

/// g'(x) = 1 / (1 - x)^2, the slope of the M/M/1 occupancy in the load.
/// Returns +infinity for x >= 1; throws std::invalid_argument for x < 0.
/// The FairShare queue recursion's analytic Jacobian is built on it
/// (docs/THEORY.md section 8).
double g_prime(double x);

}  // namespace ffc::queueing
