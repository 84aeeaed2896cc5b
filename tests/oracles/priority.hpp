// Preemptive-resume priority M/M/1 analytics.
//
// All classes share one exponential server of rate mu; class 0 has the
// highest priority and preempts everything below it. Because service is
// memoryless, the classes 0..j jointly behave exactly like an M/M/1 queue of
// load sigma_j = sum_{k<=j} lambda_k / mu, which gives the classic cumulative
// occupancy law
//
//   L(0..j) = g(sigma_j),    L_j = g(sigma_j) - g(sigma_{j-1}).
//
// The Fair Share discipline (src/queueing/fair_share.hpp) is defined by feeding a
// particular decomposition of the connection streams into this system
// (Table 1 of the paper), so this module is the tests' ground truth for
// Fair Share and for the simulator's preemptive server.
#pragma once

#include <vector>

namespace ffc::oracles {

/// Mean number in system per class for a preemptive-resume priority M/M/1.
/// `class_rates[0]` is the highest-priority class. Entries are +infinity for
/// every class j with sigma_j >= 1. Requires mu > 0, rates >= 0.
std::vector<double> preemptive_priority_occupancy(
    const std::vector<double>& class_rates, double mu);

/// Mean sojourn time per class (Little's law; +infinity where occupancy is
/// infinite, and for zero-rate classes the limiting value as the rate
/// vanishes).
std::vector<double> preemptive_priority_sojourn(
    const std::vector<double>& class_rates, double mu);

}  // namespace ffc::oracles
