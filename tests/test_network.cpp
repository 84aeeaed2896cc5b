// Tests for Topology, the CSR incidence engine, and the canonical topology
// builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "network/builders.hpp"
#include "network/csr.hpp"
#include "network/topology.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::network::Connection;
using ffc::network::Gateway;
using ffc::network::GatewayId;
using ffc::network::parking_lot;
using ffc::network::random_topology;
using ffc::network::RandomTopologyParams;
using ffc::network::single_bottleneck;
using ffc::network::tandem;
using ffc::network::Topology;
using ffc::stats::Xoshiro256;

TEST(Topology, IncidenceSetsAreConsistent) {
  Topology topo({{1.0, 0.1}, {2.0, 0.2}},
                {Connection{{0}}, Connection{{0, 1}}, Connection{{1}}});
  EXPECT_EQ(topo.num_gateways(), 2u);
  EXPECT_EQ(topo.num_connections(), 3u);
  EXPECT_EQ(topo.fan_in(0), 2u);
  EXPECT_EQ(topo.fan_in(1), 2u);
  const auto& through0 = topo.connections_through(0);
  EXPECT_TRUE(std::find(through0.begin(), through0.end(), 1u) !=
              through0.end());
  EXPECT_DOUBLE_EQ(topo.path_latency(1), 0.3);
}

TEST(CsrIncidence, DualViewsAgree) {
  // Three gateways, four connections with overlapping multi-hop paths.
  Topology topo({{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}},
                {Connection{{0, 1}}, Connection{{1, 2}}, Connection{{0, 2}},
                 Connection{{2}}});
  const auto& csr = topo.incidence();
  EXPECT_EQ(csr.num_gateways(), 3u);
  EXPECT_EQ(csr.num_connections(), 4u);
  EXPECT_EQ(csr.num_entries(), 7u);

  // Gateway-major rows list ascending connection ids.
  for (ffc::network::GatewayId a = 0; a < 3; ++a) {
    const auto gamma = csr.connections_through(a);
    EXPECT_EQ(gamma.size(), csr.fan_in(a));
    EXPECT_TRUE(std::is_sorted(gamma.begin(), gamma.end()));
  }
  // Connection-major rows preserve traversal order and mirror the
  // gateway-major membership exactly.
  for (ffc::network::ConnectionId i = 0; i < 4; ++i) {
    const auto path = csr.path(i);
    const auto slots = csr.slots(i);
    ASSERT_EQ(path.size(), slots.size());
    for (std::size_t h = 0; h < path.size(); ++h) {
      const std::size_t local = csr.local_index_at(i, h);
      const auto gamma = csr.connections_through(path[h]);
      ASSERT_LT(local, gamma.size());
      EXPECT_EQ(gamma[local], i);  // the local index points back at i
      EXPECT_EQ(csr.local_index(i, path[h]), local);
      EXPECT_EQ(slots[h], csr.gateway_offset(path[h]) + local);
    }
  }
}

TEST(CsrIncidence, SoaPrimitivesMatchScalarDefinitions) {
  Topology topo({{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}},
                {Connection{{0, 1}}, Connection{{1, 2}}, Connection{{0, 2}},
                 Connection{{2}}});
  const auto& csr = topo.incidence();
  const std::vector<double> rates = {0.125, 0.25, 0.5, 0.0625};

  std::vector<double> flat;
  ffc::network::gather_by_gateway_into(csr, rates, flat);
  ASSERT_EQ(flat.size(), csr.num_entries());
  for (ffc::network::GatewayId a = 0; a < 3; ++a) {
    const auto gamma = csr.connections_through(a);
    for (std::size_t k = 0; k < gamma.size(); ++k) {
      EXPECT_EQ(flat[csr.gateway_offset(a) + k], rates[gamma[k]]);
    }
  }

  // Write a distinct value into every slot, then reduce per path.
  for (std::size_t e = 0; e < flat.size(); ++e) flat[e] = double(e + 1);
  std::vector<double> max_out, sum_out;
  ffc::network::reduce_max_over_paths_into(csr, flat, max_out);
  ffc::network::reduce_sum_over_paths_into(csr, flat, sum_out);
  ASSERT_EQ(max_out.size(), 4u);
  ASSERT_EQ(sum_out.size(), 4u);
  for (ffc::network::ConnectionId i = 0; i < 4; ++i) {
    double expected_max = 0.0, expected_sum = 0.0;
    for (const std::size_t slot : csr.slots(i)) {
      expected_max = std::max(expected_max, flat[slot]);
      expected_sum += flat[slot];
    }
    EXPECT_EQ(max_out[i], expected_max);
    EXPECT_EQ(sum_out[i], expected_sum);
  }
}

TEST(CsrIncidence, RandomTopologiesStayConsistent) {
  // Random duplicate-free paths, indexed through the Connection input form
  // and compared hop by hop against that input list.
  Xoshiro256 rng(99);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t gateways = 4 + std::size_t(rep % 3);
    std::vector<Connection> input(12);
    for (Connection& c : input) {
      std::vector<GatewayId> ids(gateways);
      std::iota(ids.begin(), ids.end(), GatewayId{0});
      const std::size_t len = 1 + rng.uniform_index(4);
      for (std::size_t k = 0; k < len; ++k) {
        std::swap(ids[k], ids[k + rng.uniform_index(gateways - k)]);
      }
      c.path.assign(ids.begin(), ids.begin() + static_cast<long>(len));
    }
    const Topology topo(std::vector<Gateway>(gateways), input);
    const auto& csr = topo.incidence();
    std::size_t total = 0;
    for (GatewayId a = 0; a < csr.num_gateways(); ++a) {
      total += csr.fan_in(a);
    }
    EXPECT_EQ(total, csr.num_entries());
    ASSERT_EQ(csr.num_connections(), input.size());
    for (ffc::network::ConnectionId i = 0; i < csr.num_connections(); ++i) {
      const auto path = csr.path(i);
      ASSERT_EQ(path.size(), input[i].path.size());
      for (std::size_t h = 0; h < path.size(); ++h) {
        EXPECT_EQ(path[h], input[i].path[h]);
        const auto gamma = csr.connections_through(path[h]);
        EXPECT_EQ(gamma[csr.local_index_at(i, h)], i);
      }
    }
  }
}

TEST(Topology, RejectsInvalidInput) {
  EXPECT_THROW(Topology({{0.0, 0.0}}, {Connection{{0}}}),
               std::invalid_argument);  // mu <= 0
  EXPECT_THROW(Topology({{1.0, -0.1}}, {Connection{{0}}}),
               std::invalid_argument);  // negative latency
  EXPECT_THROW(Topology({{1.0, 0.0}}, {Connection{{}}}),
               std::invalid_argument);  // empty path
  EXPECT_THROW(Topology({{1.0, 0.0}}, {Connection{{1}}}),
               std::invalid_argument);  // unknown gateway
  EXPECT_THROW(Topology({{1.0, 0.0}}, {Connection{{0, 0}}}),
               std::invalid_argument);  // revisited gateway
}

TEST(Topology, FlatRowsRejectHostileInput) {
  const std::vector<Gateway> two(2);
  EXPECT_NO_THROW(Topology(two, {0, 2, 3}, {0, 1, 1}));
  EXPECT_THROW(Topology(two, {}, {}), std::invalid_argument);  // no offsets
  EXPECT_THROW(Topology(two, {1, 2, 3}, {0, 1, 1}),
               std::invalid_argument);  // offsets do not start at 0
  EXPECT_THROW(Topology(two, {0, 2, 1}, {0, 1}),
               std::invalid_argument);  // offsets decrease
  EXPECT_THROW(Topology(two, {0, 4, 3}, {0, 1, 1}),
               std::invalid_argument);  // a row beyond the ids, then back
  EXPECT_THROW(Topology(two, {0, 2, 3}, {0, 1, 1, 0}),
               std::invalid_argument);  // last offset short of the ids
  EXPECT_THROW(Topology(two, {0, 2, 4}, {0, 1, 1}),
               std::invalid_argument);  // last offset past the ids
  EXPECT_THROW(Topology(two, {0, 2, 2, 3}, {0, 1, 1}),
               std::invalid_argument);  // empty row
  EXPECT_THROW(Topology(two, {0, 2, 3}, {0, 2, 1}),
               std::invalid_argument);  // out-of-range gateway id
  EXPECT_THROW(Topology(two, {0, 2, 3}, {1, 1, 1}),
               std::invalid_argument);  // revisited gateway

  const Topology topo(two, {0, 2, 3}, {0, 1, 1});
  EXPECT_EQ(topo.path(1).size(), 1u);
  EXPECT_THROW(topo.path(topo.num_connections()), std::out_of_range);
  EXPECT_THROW(topo.path_latency(topo.num_connections()), std::out_of_range);
}

/// A draw in [0, n) from SplitMix64, a bit-portable stream, so every host
/// fuzzes the same inputs.
struct Stream {
  ffc::stats::SplitMix64 rng;
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng.next() % n; }
};

TEST(TopologyFuzz, MutatedFlatRowsConstructOrThrow) {
  // Mutations of a valid parking-lot-like network's flat rows: overwrite,
  // insert or erase an offset or a gateway id, with values near the valid
  // range. Every input either indexes into rows equal to its own input or
  // throws std::invalid_argument; nothing else, and no crash under ASan.
  const std::vector<std::size_t> seed_offsets = {0, 3, 4, 5, 7, 8};
  const std::vector<GatewayId> seed_ids = {0, 1, 2, 0, 1, 2, 0, 2};
  constexpr std::size_t kGateways = 3;
  Stream rng{ffc::stats::SplitMix64(20261019)};
  std::size_t built = 0, rejected = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::vector<std::size_t> offsets = seed_offsets;
    std::vector<GatewayId> ids = seed_ids;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t k = 0; k < edits; ++k) {
      const bool on_offsets = rng.below(2) == 0;
      std::vector<std::size_t>& row = on_offsets ? offsets : ids;
      const std::size_t value = rng.below(on_offsets ? 10 : 5);
      switch (rng.below(3)) {
        case 0:
          if (!row.empty()) row[rng.below(row.size())] = value;
          break;
        case 1:
          row.insert(row.begin() + static_cast<long>(rng.below(row.size() + 1)),
                     value);
          break;
        default:
          if (!row.empty()) {
            row.erase(row.begin() + static_cast<long>(rng.below(row.size())));
          }
          break;
      }
    }
    try {
      const Topology topo(std::vector<Gateway>(kGateways), offsets, ids);
      ASSERT_EQ(topo.num_connections() + 1, offsets.size());
      for (ffc::network::ConnectionId i = 0; i < topo.num_connections(); ++i) {
        const auto path = topo.path(i);
        EXPECT_TRUE(std::equal(path.begin(), path.end(),
                               ids.data() + offsets[i],
                               ids.data() + offsets[i + 1]));
      }
      EXPECT_EQ(topo.incidence().num_entries(), ids.size());
      ++built;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& other) {
      ADD_FAILURE() << "non-invalid_argument exception '" << other.what()
                    << "'";
    }
  }
  // Both outcomes must actually occur, or the fuzz proves nothing.
  EXPECT_GT(built, 200u);
  EXPECT_GT(rejected, 2000u);
}

TEST(Topology, ScaledRatesOnlyTouchesMu) {
  Topology topo({{1.0, 0.5}}, {Connection{{0}}});
  const Topology scaled = topo.scaled_rates(4.0);
  EXPECT_DOUBLE_EQ(scaled.gateway(0).mu, 4.0);
  EXPECT_DOUBLE_EQ(scaled.gateway(0).latency, 0.5);
  EXPECT_THROW(topo.scaled_rates(0.0), std::invalid_argument);
}

TEST(Topology, ScaledLatencies) {
  Topology topo({{1.0, 0.5}}, {Connection{{0}}});
  const Topology scaled = topo.scaled_latencies(0.0);
  EXPECT_DOUBLE_EQ(scaled.gateway(0).latency, 0.0);
  EXPECT_DOUBLE_EQ(scaled.gateway(0).mu, 1.0);
}

TEST(Topology, SummaryMentionsCounts) {
  Topology topo({{1.0, 0.0}}, {Connection{{0}}});
  EXPECT_EQ(topo.summary(), "1 gateways, 1 connections");
}

TEST(Builders, SingleBottleneck) {
  const Topology topo = single_bottleneck(5, 2.0, 0.25);
  EXPECT_EQ(topo.num_gateways(), 1u);
  EXPECT_EQ(topo.num_connections(), 5u);
  EXPECT_EQ(topo.fan_in(0), 5u);
  EXPECT_DOUBLE_EQ(topo.gateway(0).mu, 2.0);
  EXPECT_THROW(single_bottleneck(0), std::invalid_argument);
}

TEST(Builders, ParkingLotShape) {
  const Topology topo = parking_lot(3, 2);
  // 1 long connection + 3 * 2 cross connections.
  EXPECT_EQ(topo.num_connections(), 7u);
  EXPECT_EQ(topo.num_gateways(), 3u);
  EXPECT_EQ(topo.path(0).size(), 3u);        // the long connection
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_EQ(topo.fan_in(a), 3u);  // long + 2 cross
  }
  EXPECT_THROW(parking_lot(0, 1), std::invalid_argument);
}

TEST(Builders, TandemBottleneckAtLastHop) {
  const Topology topo = tandem(4, 3, 1.0, 0.5);
  EXPECT_EQ(topo.num_gateways(), 4u);
  EXPECT_EQ(topo.num_connections(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(topo.path(i).size(), 4u);
  EXPECT_DOUBLE_EQ(topo.gateway(3).mu, 0.5);
  EXPECT_DOUBLE_EQ(topo.gateway(0).mu, 1.0);
}

TEST(Builders, RandomTopologyCoversEveryGateway) {
  Xoshiro256 rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTopologyParams params;
    params.num_gateways = 5;
    params.num_connections = 6;
    const Topology topo = random_topology(rng, params);
    for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
      EXPECT_GE(topo.fan_in(a), 1u) << "gateway " << a << " uncovered";
    }
    for (std::size_t i = 0; i < topo.num_connections(); ++i) {
      EXPECT_FALSE(topo.path(i).empty());
    }
  }
}

TEST(Builders, RandomTopologyPathsArePinned) {
  // Paths recorded from the per-connection builder this one replaced: the
  // same draws give the same paths, coverage appends included (at G = 8,
  // N = 3 and one hop each, five gateways are uncovered and connections 0
  // and 1 take two of them each).
  const auto paths = [](std::uint64_t seed, std::size_t gateways,
                        std::size_t connections, std::size_t max_length) {
    Xoshiro256 rng(seed);
    RandomTopologyParams params;
    params.num_gateways = gateways;
    params.num_connections = connections;
    params.max_path_length = max_length;
    const Topology topo = random_topology(rng, params);
    std::vector<std::vector<GatewayId>> out;
    for (std::size_t i = 0; i < topo.num_connections(); ++i) {
      out.emplace_back(topo.path(i).begin(), topo.path(i).end());
    }
    return out;
  };
  using Paths = std::vector<std::vector<GatewayId>>;
  EXPECT_EQ(paths(7, 8, 3, 1), (Paths{{6, 0, 3}, {5, 1, 7}, {4, 2}}));
  EXPECT_EQ(paths(11, 5, 6, 3),
            (Paths{{4}, {4}, {2, 1, 3}, {3}, {1}, {2, 0}}));
}

TEST(Builders, RandomTopologyRespectsMuRange) {
  Xoshiro256 rng(5);
  RandomTopologyParams params;
  params.mu_min = 0.7;
  params.mu_max = 0.9;
  const Topology topo = random_topology(rng, params);
  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    EXPECT_GE(topo.gateway(a).mu, 0.7);
    EXPECT_LE(topo.gateway(a).mu, 0.9 + 1e-12);
  }
}

TEST(Builders, RandomTopologyRejectsBadParams) {
  Xoshiro256 rng(1);
  RandomTopologyParams params;
  params.num_connections = 0;
  EXPECT_THROW(random_topology(rng, params), std::invalid_argument);
  params.num_connections = 2;
  params.mu_min = 0.0;
  EXPECT_THROW(random_topology(rng, params), std::invalid_argument);
}

}  // namespace
