// Closed-form M/M/1 results: the tests' ground truth for the discrete-event
// simulator and for the single-connection limit of every discipline.
#pragma once

#include <cstddef>

namespace ffc::oracles {

/// Analytic quantities of an M/M/1 queue with arrival rate `lambda` and
/// service rate `mu`. All means are +infinity when lambda >= mu.
struct Mm1 {
  /// Requires mu > 0 and lambda >= 0.
  Mm1(double lambda, double mu);

  double lambda() const { return lambda_; }
  double mu() const { return mu_; }
  /// Utilization rho = lambda / mu.
  double utilization() const;
  /// Mean number in system L = rho / (1 - rho).
  double mean_number_in_system() const;
  /// Mean number waiting (not in service) Lq = rho^2 / (1 - rho).
  double mean_number_in_queue() const;
  /// Mean sojourn time W = 1 / (mu - lambda).
  double mean_time_in_system() const;
  /// Mean waiting time Wq = rho / (mu - lambda).
  double mean_waiting_time() const;
  /// P{N = n} = (1 - rho) rho^n (0 if unstable).
  double prob_n_in_system(std::size_t n) const;
  /// True iff lambda < mu.
  bool stable() const;

 private:
  double lambda_;
  double mu_;
};

}  // namespace ffc::oracles
