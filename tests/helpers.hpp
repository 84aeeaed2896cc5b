// Shared factories for model-level tests.
#pragma once

#include <memory>
#include <vector>

#include "core/model.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"

namespace ffc::testing {

inline std::shared_ptr<const queueing::ServiceDiscipline> fifo() {
  return std::make_shared<queueing::Fifo>();
}

inline std::shared_ptr<const queueing::ServiceDiscipline> fair_share() {
  return std::make_shared<queueing::FairShare>();
}

inline std::shared_ptr<const core::SignalFunction> rational_signal() {
  return std::make_shared<core::RationalSignal>();
}

/// Homogeneous model over a given topology: additive TSI adjuster with the
/// given eta/beta, rational signal.
inline core::FlowControlModel make_model(
    network::Topology topo,
    std::shared_ptr<const queueing::ServiceDiscipline> discipline,
    core::FeedbackStyle style, double eta = 0.1, double beta = 0.5) {
  return core::FlowControlModel(
      std::move(topo), std::move(discipline), rational_signal(), style,
      std::make_shared<core::AdditiveTsi>(eta, beta));
}

/// Each connection's bottleneck gateways in path order: the hops whose
/// signal equals the connection's combined signal (the argmax set).
inline std::vector<std::vector<network::GatewayId>> bottleneck_gateways(
    const network::Topology& topo, const core::NetworkState& state) {
  const network::CsrIncidence& csr = topo.incidence();
  std::vector<std::vector<network::GatewayId>> out(topo.num_connections());
  for (network::ConnectionId i = 0; i < out.size(); ++i) {
    const auto path = csr.path(i);
    const auto slots = csr.slots(i);
    for (std::size_t h = 0; h < path.size(); ++h) {
      if (core::is_bottleneck(state, i, slots[h])) out[i].push_back(path[h]);
    }
  }
  return out;
}

/// Single-gateway homogeneous model with N connections.
inline core::FlowControlModel single_gateway_model(
    std::size_t n, std::shared_ptr<const queueing::ServiceDiscipline> disc,
    core::FeedbackStyle style, double eta = 0.1, double beta = 0.5,
    double mu = 1.0) {
  return make_model(network::single_bottleneck(n, mu), std::move(disc),
                    style, eta, beta);
}

}  // namespace ffc::testing
