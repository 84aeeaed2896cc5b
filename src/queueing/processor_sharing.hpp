// Egalitarian Processor Sharing -- a deliberately instructive discipline.
//
// PS serves all backlogged packets simultaneously at rate mu / (number in
// system). For Poisson classes at an exponential server, the stationary
// per-class occupancy is the classic insensitive product form
//
//   Q_i = rho_i / (1 - rho_total)
//
// -- EXACTLY the FIFO expression. The lesson, which sharpens the paper's
// §3.4 point: "serving everyone equally right now" does not protect small
// senders, because a greedy sender still floods the shared backlog and the
// total still diverges at rho >= 1 for everyone. Fair Share's robustness
// (Theorem 5) comes from strict PRIORITY of low-rate traffic, not from
// instantaneous equality. PS therefore fails the Theorem-5 bound the same
// way FIFO does.
#pragma once

#include "queueing/fifo.hpp"

namespace ffc::queueing {

/// The queue map is FIFO's function, so PS runs FIFO's kernels: bitwise
/// identical to FIFO (ProcessorSharing.MeanOccupancyEqualsFifo pins this).
class ProcessorSharing final : public ServiceDiscipline {
 public:
  void queue_lengths_into(std::span<const double> rates, double mu,
                          DisciplineWorkspace& ws,
                          std::span<double> out) const override {
    Fifo().queue_lengths_into(rates, mu, ws, out);
  }
  void queue_lengths_jvp_into(std::span<const double> rates, double mu,
                              std::span<const double> queues,
                              std::span<const double> dx,
                              DisciplineWorkspace& ws,
                              std::span<double> dq) const override {
    Fifo().queue_lengths_jvp_into(rates, mu, queues, dx, ws, dq);
  }
  bool differentiable() const override { return true; }
  std::string_view name() const override { return "ProcessorSharing"; }
};

}  // namespace ffc::queueing
