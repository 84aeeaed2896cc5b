// Canonical topology constructors used by experiments and tests.
#pragma once

#include <cstddef>

#include "network/topology.hpp"
#include "stats/rng.hpp"

namespace ffc::network {

/// N connections sharing one gateway of rate `mu` and latency `latency` --
/// the configuration of every single-gateway argument in the paper.
Topology single_bottleneck(std::size_t n_connections, double mu = 1.0,
                           double latency = 0.0);

/// The classic "parking lot": `hops` gateways in a row, one long connection
/// traversing all of them, plus `cross_per_hop` single-hop connections at
/// each gateway. Exposes multi-bottleneck fairness (the long connection
/// competes everywhere).
Topology parking_lot(std::size_t hops, std::size_t cross_per_hop,
                     double mu = 1.0, double latency = 0.0);

/// `hops` gateways in series, all `n_connections` connections traversing the
/// full line (a shared path with the last gateway made the bottleneck when
/// mu_last < mu).
Topology tandem(std::size_t hops, std::size_t n_connections, double mu = 1.0,
                double mu_last = 0.5, double latency = 0.0);

/// Parameters for random_topology().
struct RandomTopologyParams {
  std::size_t num_gateways = 6;
  std::size_t num_connections = 10;
  std::size_t max_path_length = 3;  ///< clamped to num_gateways
  double mu_min = 0.5;
  double mu_max = 2.0;
  double latency_max = 1.0;
};

/// A random topology: each connection picks a random-length, duplicate-free
/// random gateway path; gateway rates and latencies are uniform in the given
/// ranges. Every gateway is guaranteed at least one connection: the j-th
/// gateway no path covers is appended to connection j mod N. O(E).
Topology random_topology(stats::Xoshiro256& rng,
                         const RandomTopologyParams& params = {});

}  // namespace ffc::network
