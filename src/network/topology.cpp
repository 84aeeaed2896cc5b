#include "network/topology.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace ffc::network {

namespace {

void validate_gateways(const std::vector<Gateway>& gateways) {
  for (const Gateway& gw : gateways) {
    if (!(gw.mu > 0.0) || std::isinf(gw.mu)) {
      throw std::invalid_argument("Topology: gateway mu must be positive");
    }
    if (!(gw.latency >= 0.0) || std::isinf(gw.latency)) {
      throw std::invalid_argument("Topology: latency must be >= 0 and finite");
    }
  }
}

/// O(E) check of the flat rows. The offsets come first, so every row lies
/// inside path_gateways. One stamp per gateway records the last connection
/// seen there: a revisit is a stamp equal to the current connection.
void validate_paths(std::size_t num_gateways,
                    const std::vector<std::size_t>& offsets,
                    const std::vector<GatewayId>& path_gateways) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != path_gateways.size() ||
      std::adjacent_find(offsets.begin(), offsets.end(),
                         std::greater_equal<>()) != offsets.end()) {
    throw std::invalid_argument(
        "Topology: path offsets must rise strictly (no empty path) from 0 "
        "to the gateway-id count");
  }
  std::vector<ConnectionId> stamp(num_gateways,
                                  std::numeric_limits<ConnectionId>::max());
  for (ConnectionId i = 0; i + 1 < offsets.size(); ++i) {
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const GatewayId a = path_gateways[e];
      if (a >= num_gateways) {
        throw std::invalid_argument("Topology: path references bad gateway");
      }
      if (stamp[a] == i) {
        throw std::invalid_argument("Topology: path revisits a gateway");
      }
      stamp[a] = i;
    }
  }
}

std::vector<std::size_t> path_offsets(
    const std::vector<Connection>& connections) {
  std::vector<std::size_t> offsets(connections.size() + 1, 0);
  std::transform_inclusive_scan(
      connections.begin(), connections.end(), offsets.begin() + 1,
      std::plus<>(), [](const Connection& c) { return c.path.size(); });
  return offsets;
}

std::vector<GatewayId> path_gateways(
    const std::vector<Connection>& connections) {
  std::vector<GatewayId> flat;
  for (const Connection& c : connections) {
    flat.insert(flat.end(), c.path.begin(), c.path.end());
  }
  return flat;
}

}  // namespace

Topology::Topology(std::vector<Gateway> gateways,
                   std::vector<std::size_t> path_offsets,
                   std::vector<GatewayId> path_gateways)
    : gateways_(std::move(gateways)) {
  validate_gateways(gateways_);
  validate_paths(gateways_.size(), path_offsets, path_gateways);
  csr_ = CsrIncidence(gateways_.size(), std::move(path_offsets),
                      std::move(path_gateways));
}

Topology::Topology(std::vector<Gateway> gateways,
                   const std::vector<Connection>& connections)
    : Topology(std::move(gateways), path_offsets(connections),
               path_gateways(connections)) {}

void Topology::check_gateway(GatewayId a) const {
  if (a >= gateways_.size()) {
    throw std::out_of_range("Topology: gateway id out of range");
  }
}

double Topology::path_latency(ConnectionId i) const {
  double total = 0.0;
  for (GatewayId a : path(i)) total += gateways_[a].latency;
  return total;
}

Topology Topology::scaled_rates(double c) const {
  if (!(c > 0.0)) {
    throw std::invalid_argument("scaled_rates: factor must be > 0");
  }
  Topology scaled = *this;
  for (Gateway& gw : scaled.gateways_) gw.mu *= c;
  validate_gateways(scaled.gateways_);
  return scaled;
}

Topology Topology::scaled_latencies(double c) const {
  if (!(c >= 0.0)) {
    throw std::invalid_argument("scaled_latencies: factor must be >= 0");
  }
  Topology scaled = *this;
  for (Gateway& gw : scaled.gateways_) gw.latency *= c;
  validate_gateways(scaled.gateways_);
  return scaled;
}

std::string Topology::summary() const {
  std::ostringstream oss;
  oss << num_gateways() << " gateways, " << num_connections()
      << " connections";
  return oss.str();
}

}  // namespace ffc::network
