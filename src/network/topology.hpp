// Network and traffic topology (§2.1 of the paper).
//
// Gateways are logical: one per outgoing communication line, so a gateway is
// exactly one exponential server of rate mu^a plus the line's propagation
// latency l^a. Connections are source-destination pairs with a static path
// y(i), the ordered list of gateways they traverse. Gamma(a) is the set of
// connections through gateway a and N^a its size.
//
// The paths are stored once, as the connection-major rows of the CSR
// incidence (docs/SCALING.md §1): a topology is its gateways plus that
// index, and Connection is only an input form for hand-written networks.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "network/csr.hpp"

namespace ffc::network {

/// One logical gateway: an exponential server plus its line's latency.
struct Gateway {
  double mu = 1.0;       ///< service rate (packets / unit time), > 0
  double latency = 0.0;  ///< propagation delay of the outgoing line, >= 0
};

/// Input form of one connection: an ordered gateway path. Paths must be
/// nonempty and may not revisit a gateway.
struct Connection {
  std::vector<GatewayId> path;
};

/// An immutable network + traffic topology with precomputed incidence sets.
class Topology {
 public:
  /// Validates and indexes the topology from flat connection-major rows:
  /// y(i) is path_gateways[path_offsets[i] .. path_offsets[i + 1]). Throws
  /// std::invalid_argument unless path_offsets starts at 0, increases
  /// strictly (no empty path) and ends at path_gateways.size(), every id
  /// names a gateway, no path revisits a gateway, and every gateway
  /// parameter is valid. O(E); the rows become the index's own arrays.
  Topology(std::vector<Gateway> gateways,
           std::vector<std::size_t> path_offsets,
           std::vector<GatewayId> path_gateways);

  /// Flattens hand-written connections and validates them as above.
  Topology(std::vector<Gateway> gateways,
           const std::vector<Connection>& connections);

  std::size_t num_gateways() const { return gateways_.size(); }
  std::size_t num_connections() const { return csr_.num_connections(); }

  const Gateway& gateway(GatewayId a) const { return gateways_.at(a); }

  /// y(i): gateways on connection i's path, in traversal order.
  /// Throws std::out_of_range for an unknown connection id.
  std::span<const GatewayId> path(ConnectionId i) const {
    if (i >= num_connections()) {
      throw std::out_of_range("Topology: connection id out of range");
    }
    return csr_.path(i);
  }

  /// Gamma(a): connections through gateway a (ascending connection id).
  /// Throws std::out_of_range for an unknown gateway id.
  std::span<const ConnectionId> connections_through(GatewayId a) const {
    check_gateway(a);
    return csr_.connections_through(a);
  }

  /// N^a: number of connections through gateway a.
  std::size_t fan_in(GatewayId a) const {
    check_gateway(a);
    return csr_.fan_in(a);
  }

  /// The dual-CSR incidence index (docs/SCALING.md): gateway-major and
  /// connection-major membership rows plus the flat SoA slot map the model
  /// layer iterates over without searching.
  const CsrIncidence& incidence() const { return csr_; }

  /// Sum of latencies along connection i's path.
  double path_latency(ConnectionId i) const;

  /// Returns a copy with every service rate scaled by c > 0 (used by the
  /// time-scale-invariance experiments). The index is copied, not rebuilt.
  Topology scaled_rates(double c) const;

  /// Returns a copy with every latency scaled by c >= 0.
  Topology scaled_latencies(double c) const;

  /// One-line human-readable summary ("3 gateways, 5 connections").
  std::string summary() const;

 private:
  void check_gateway(GatewayId a) const;

  std::vector<Gateway> gateways_;
  CsrIncidence csr_;
};

}  // namespace ffc::network
