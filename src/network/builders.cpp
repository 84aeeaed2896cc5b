#include "network/builders.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ffc::network {

Topology single_bottleneck(std::size_t n_connections, double mu,
                           double latency) {
  if (n_connections == 0) {
    throw std::invalid_argument("single_bottleneck: need >= 1 connection");
  }
  std::vector<std::size_t> offsets(n_connections + 1);
  std::iota(offsets.begin(), offsets.end(), std::size_t{0});
  return Topology({{mu, latency}}, std::move(offsets),
                  std::vector<GatewayId>(n_connections, 0));
}

Topology parking_lot(std::size_t hops, std::size_t cross_per_hop, double mu,
                     double latency) {
  if (hops == 0) throw std::invalid_argument("parking_lot: need >= 1 hop");
  // Connection 0 is the long one; the one-hop cross connections follow,
  // cross_per_hop at each gateway in turn.
  const std::size_t cross = hops * cross_per_hop;
  std::vector<std::size_t> offsets(cross + 2, 0);
  std::iota(offsets.begin() + 1, offsets.end(), hops);
  std::vector<GatewayId> path_gateways(hops + cross);
  std::iota(path_gateways.begin(), path_gateways.begin() + hops,
            GatewayId{0});
  for (GatewayId a = 0; a < hops; ++a) {
    std::fill_n(path_gateways.begin() + hops + a * cross_per_hop,
                cross_per_hop, a);
  }
  return Topology(std::vector<Gateway>(hops, Gateway{mu, latency}),
                  std::move(offsets), std::move(path_gateways));
}

Topology tandem(std::size_t hops, std::size_t n_connections, double mu,
                double mu_last, double latency) {
  if (hops == 0) throw std::invalid_argument("tandem: need >= 1 hop");
  if (n_connections == 0) {
    throw std::invalid_argument("tandem: need >= 1 connection");
  }
  std::vector<Gateway> gws(hops, Gateway{mu, latency});
  gws.back().mu = mu_last;
  std::vector<std::size_t> offsets(n_connections + 1);
  std::vector<GatewayId> path_gateways(n_connections * hops);
  for (ConnectionId i = 0; i <= n_connections; ++i) offsets[i] = i * hops;
  for (std::size_t e = 0; e < path_gateways.size(); ++e) {
    path_gateways[e] = e % hops;
  }
  return Topology(std::move(gws), std::move(offsets),
                  std::move(path_gateways));
}

Topology random_topology(stats::Xoshiro256& rng,
                         const RandomTopologyParams& params) {
  if (params.num_gateways == 0 || params.num_connections == 0) {
    throw std::invalid_argument("random_topology: empty topology");
  }
  if (!(params.mu_min > 0.0) || params.mu_max < params.mu_min) {
    throw std::invalid_argument("random_topology: bad mu range");
  }
  std::vector<Gateway> gws(params.num_gateways);
  for (Gateway& gw : gws) {
    gw.mu = rng.uniform(params.mu_min,
                        std::nextafter(params.mu_max, params.mu_max * 2));
    gw.latency = params.latency_max > 0.0
                     ? rng.uniform(0.0, params.latency_max)
                     : 0.0;
  }

  const std::size_t n = params.num_connections;
  const std::size_t max_len =
      std::max<std::size_t>(1, std::min(params.max_path_length,
                                        params.num_gateways));
  // Draw each duplicate-free path by a partial shuffle of the gateway ids,
  // then undo the swaps so every connection shuffles the identity.
  std::vector<GatewayId> ids(params.num_gateways);
  std::iota(ids.begin(), ids.end(), GatewayId{0});
  std::vector<std::size_t> picks(max_len);
  std::vector<std::size_t> drawn_offsets(n + 1, 0);
  std::vector<GatewayId> drawn;
  std::vector<bool> covered(params.num_gateways, false);
  for (ConnectionId i = 0; i < n; ++i) {
    const std::size_t len = 1 + rng.uniform_index(max_len);
    for (std::size_t k = 0; k < len; ++k) {
      picks[k] = k + rng.uniform_index(ids.size() - k);
      std::swap(ids[k], ids[picks[k]]);
      drawn.push_back(ids[k]);
      covered[ids[k]] = true;
    }
    drawn_offsets[i + 1] = drawn.size();
    for (std::size_t k = len; k-- > 0;) std::swap(ids[k], ids[picks[k]]);
  }
  // Every gateway must carry at least one connection: the j-th uncovered
  // gateway is appended to connection j mod n. It is on no path, so no
  // append revisits a gateway, and one O(E) re-pack does them all.
  std::vector<GatewayId> uncovered;
  for (GatewayId a = 0; a < params.num_gateways; ++a) {
    if (!covered[a]) uncovered.push_back(a);
  }
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<GatewayId> path_gateways;
  path_gateways.reserve(drawn.size() + uncovered.size());
  for (ConnectionId i = 0; i < n; ++i) {
    path_gateways.insert(path_gateways.end(), drawn.data() + drawn_offsets[i],
                         drawn.data() + drawn_offsets[i + 1]);
    for (std::size_t j = i; j < uncovered.size(); j += n) {
      path_gateways.push_back(uncovered[j]);
    }
    offsets[i + 1] = path_gateways.size();
  }
  return Topology(std::move(gws), std::move(offsets),
                  std::move(path_gateways));
}

}  // namespace ffc::network
