// The FIFO service discipline (§2.2).
//
// Packets are served in arrival order; the gateway behaves as one M/M/1
// queue with total load rho = sum_i r_i / mu, and each connection holds a
// share of the occupancy proportional to its arrival rate:
//
//   Q_i(r) = rho_i / (1 - rho_total),   rho_i = r_i / mu.
#pragma once

#include <limits>

#include "queueing/discipline.hpp"

namespace ffc::queueing {

class Fifo final : public ServiceDiscipline {
 public:
  // Defined inline: the body is a two-pass loop, and keeping it visible lets
  // calls on a concrete Fifo (the common case in the solver hot loops)
  // devirtualize and inline it outright.
  void queue_lengths_into(std::span<const double> rates, double mu,
                          DisciplineWorkspace& /*ws*/,
                          std::span<double> out) const override {
    double total = 0.0;
    for (double r : rates) total += r;

    if (total >= mu) {
      // Overloaded gateway: every active connection's queue diverges; an
      // idle connection has no packets.
      for (std::size_t i = 0; i < rates.size(); ++i) {
        out[i] =
            rates[i] > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
      }
      return;
    }
    // rho_i / (1 - rho_total) == r_i / (mu - total): one shared reciprocal
    // and a single multiply per connection keeps the loop branch-free and
    // autovectorizable (pinned by tools/check_vectorization.sh).
    const double scale = 1.0 / (mu - total);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      out[i] = rates[i] * scale;
    }
  }

  // DQ dx in closed form. With S = sum_k dx_k and m = mu - sum_k r_k:
  //
  //   dQ_i = dx_i / m + r_i S / m^2
  //
  // (quotient rule on Q_i = r_i / m). FIFO is linear-plus-shared-scalar, so
  // there are no kinks at rate ties and the same expression is exact on both
  // sides of any direction. Saturated gateways (total >= mu) pin every
  // queue at +infinity or 0, hence dq = 0.
  void queue_lengths_jvp_into(std::span<const double> rates, double mu,
                              std::span<const double> /*queues*/,
                              std::span<const double> dx,
                              DisciplineWorkspace& /*ws*/,
                              std::span<double> dq) const override {
    double total = 0.0;
    for (double r : rates) total += r;
    if (total >= mu) {
      for (std::size_t i = 0; i < dq.size(); ++i) dq[i] = 0.0;
      return;
    }
    double dx_sum = 0.0;
    for (double d : dx) dx_sum += d;
    const double inv = 1.0 / (mu - total);
    const double c2 = dx_sum * inv * inv;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      dq[i] = dx[i] * inv + rates[i] * c2;
    }
  }

  bool differentiable() const override { return true; }

  std::string_view name() const override { return "FIFO"; }
};

}  // namespace ffc::queueing
