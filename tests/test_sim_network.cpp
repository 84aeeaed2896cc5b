// Integration tests: the packet-level NetworkSimulator against the analytic
// queueing model (the §2 modelling approximations, quantified).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "faults/fault_plan.hpp"
#include "network/builders.hpp"
#include "oracles/ks.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "sim/network_sim.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::network::Connection;
using ffc::network::Topology;
using ffc::sim::NetworkSimulator;
using ffc::sim::SimDiscipline;

TEST(NetworkSim, SingleGatewayFifoMatchesAnalytics) {
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 808);
  const std::vector<double> rates{0.2, 0.4};
  sim.set_rates(rates);
  sim.run_for(10000.0);
  sim.reset_metrics();
  sim.run_for(50000.0);

  ffc::queueing::Fifo fifo;
  const auto expected = fifo.queue_lengths(rates, 1.0);
  EXPECT_NEAR(sim.mean_queue(0, 0), expected[0], 0.07);
  EXPECT_NEAR(sim.mean_queue(0, 1), expected[1], 0.12);
}

TEST(NetworkSim, SingleGatewayFairShareMatchesAnalytics) {
  auto topo = ffc::network::single_bottleneck(3, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::FairShare, 909);
  const std::vector<double> rates{0.1, 0.25, 0.4};
  sim.set_rates(rates);
  sim.run_for(10000.0);
  sim.reset_metrics();
  sim.run_for(60000.0);

  ffc::queueing::FairShare fs;
  const auto expected = fs.queue_lengths(rates, 1.0);
  EXPECT_NEAR(sim.mean_queue(0, 0), expected[0], 0.05);
  EXPECT_NEAR(sim.mean_queue(0, 1), expected[1], 0.1);
  EXPECT_NEAR(sim.mean_queue(0, 2), expected[2], 0.5);
}

TEST(NetworkSim, ThroughputMatchesOfferedLoad) {
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 117);
  sim.set_rates({0.25, 0.35});
  sim.run_for(5000.0);
  sim.reset_metrics();
  sim.run_for(40000.0);
  EXPECT_NEAR(sim.throughput(0), 0.25, 0.01);
  EXPECT_NEAR(sim.throughput(1), 0.35, 0.01);
}

TEST(NetworkSim, TandemDelayIncludesLatenciesAndBothQueues) {
  // Two gateways in series with latencies; Kleinrock independence predicts
  // d = l1 + l2 + 1/(mu1 - r) + 1/(mu2 - r).
  Topology topo({{1.0, 0.5}, {1.0, 0.25}}, {Connection{{0, 1}}});
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 2024);
  sim.set_rates({0.5});
  sim.run_for(5000.0);
  sim.reset_metrics();
  sim.run_for(60000.0);
  const double expected = 0.75 + 2.0 + 2.0;
  EXPECT_NEAR(sim.mean_delay(0), expected, 0.15);
}

TEST(NetworkSim, SecondHopSeesPoissonLikeTraffic) {
  // The paper assumes per-connection departures stay Poisson. For FIFO
  // M/M/1 this is Burke's theorem, so the downstream queue must match M/M/1
  // analytics too.
  Topology topo({{1.0, 0.0}, {0.8, 0.0}}, {Connection{{0, 1}}});
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 55);
  sim.set_rates({0.4});
  sim.run_for(5000.0);
  sim.reset_metrics();
  sim.run_for(60000.0);
  EXPECT_NEAR(sim.mean_queue(1, 0), (0.4 / 0.8) / (1.0 - 0.4 / 0.8), 0.12);
}

TEST(NetworkSim, CrossTrafficOnlyMeetsAtSharedGateway) {
  const auto topo = ffc::network::parking_lot(2, 1, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 66);
  // Connection 0 spans both hops; 1 and 2 are single-hop.
  sim.set_rates({0.3, 0.3, 0.3});
  sim.run_for(5000.0);
  sim.reset_metrics();
  sim.run_for(40000.0);
  // Each gateway carries load 0.6; the long connection holds half of the
  // occupancy at each.
  EXPECT_NEAR(sim.mean_queue(0, 0), 0.3 / 0.4, 0.15);
  EXPECT_NEAR(sim.mean_queue(1, 0), 0.3 / 0.4, 0.15);
}

TEST(NetworkSim, RandomTopologyMatchesJacksonProductForm) {
  // Open networks of FIFO M/M/1 queues have product-form stationary
  // distributions (Jackson): every gateway behaves as an independent M/M/1
  // at its total arrival rate. Validate on a random multi-hop topology.
  ffc::stats::Xoshiro256 rng(20262026);
  ffc::network::RandomTopologyParams params;
  params.num_gateways = 4;
  params.num_connections = 6;
  params.max_path_length = 3;
  params.mu_min = 1.0;
  params.mu_max = 2.0;
  const auto topo = ffc::network::random_topology(rng, params);

  // Rates at 50% of each gateway's fair capacity to stay comfortably stable.
  std::vector<double> rates(topo.num_connections());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double tightest = 1e9;
    for (auto a : topo.path(i)) {
      tightest = std::min(tightest, topo.gateway(a).mu /
                                        static_cast<double>(topo.fan_in(a)));
    }
    rates[i] = 0.5 * tightest;
  }

  NetworkSimulator sim(topo, SimDiscipline::Fifo, 515253);
  sim.set_rates(rates);
  sim.run_for(10000.0);
  sim.reset_metrics();
  sim.run_for(60000.0);

  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    double lambda = 0.0;
    for (auto j : topo.connections_through(a)) lambda += rates[j];
    const double rho = lambda / topo.gateway(a).mu;
    ASSERT_LT(rho, 1.0);
    const double expected = rho / (1.0 - rho);
    EXPECT_NEAR(sim.mean_total_queue(a), expected,
                0.08 + 0.12 * expected)
        << "gateway " << a << " deviates from the Jackson prediction";
  }
}

TEST(NetworkSim, FifoSojournDistributionIsExponential) {
  // Not just the mean: the WHOLE per-packet delay distribution of an M/M/1
  // FIFO gateway is Exp(mu - lambda). One-sample KS test at (a loosened)
  // 5% level over tens of thousands of packets.
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 271828);
  sim.set_delay_sampling(true);
  sim.set_rates({0.6});
  sim.run_for(5000.0);
  sim.reset_metrics();
  sim.run_for(60000.0);
  const auto& samples = sim.delay_samples(0);
  ASSERT_GT(samples.size(), 10000u);
  const double rate = 1.0 - 0.6;
  const double d = ffc::oracles::ks_statistic(
      samples, [rate](double x) { return 1.0 - std::exp(-rate * x); });
  // Consecutive sojourn times are autocorrelated, so allow a few times the
  // i.i.d. critical value; a wrong distribution fails by orders of
  // magnitude (see KsStatistic.RejectsWrongDistribution).
  EXPECT_LT(d, 6.0 * ffc::oracles::ks_critical_value_5pct(samples.size()));
}

TEST(NetworkSim, DelaySamplesResetWithMetrics) {
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 3);
  sim.set_delay_sampling(true);
  sim.set_rates({0.5});
  sim.run_for(1000.0);
  ASSERT_FALSE(sim.delay_samples(0).empty());
  sim.reset_metrics();
  EXPECT_TRUE(sim.delay_samples(0).empty());
}

TEST(NetworkSim, DelaySamplingIsOffByDefault) {
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 3);
  sim.set_rates({0.5});
  sim.run_for(1000.0);
  ASSERT_GT(sim.delivered(0), 0u);
  EXPECT_TRUE(sim.delay_samples(0).empty());
}

TEST(NetworkSim, SetRatesMidRunRestartsSources) {
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 4);
  sim.set_rates({0.8});
  sim.run_for(5000.0);
  sim.set_rates({0.2});
  sim.reset_metrics();
  sim.run_for(30000.0);
  EXPECT_NEAR(sim.throughput(0), 0.2, 0.02);
}

TEST(NetworkSim, ZeroRateConnectionSendsNothing) {
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 5);
  sim.set_rates({0.0, 0.3});
  sim.run_for(10000.0);
  EXPECT_EQ(sim.delivered(0), 0u);
  EXPECT_GT(sim.delivered(1), 0u);
  EXPECT_DOUBLE_EQ(sim.mean_queue(0, 0), 0.0);
}

TEST(NetworkSim, DeterministicForFixedSeed) {
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  NetworkSimulator a(topo, SimDiscipline::FairShare, 31337);
  NetworkSimulator b(topo, SimDiscipline::FairShare, 31337);
  for (auto* sim : {&a, &b}) {
    sim->set_rates({0.2, 0.3});
    sim->run_for(1000.0);
  }
  EXPECT_EQ(a.delivered(0), b.delivered(0));
  EXPECT_EQ(a.delivered(1), b.delivered(1));
  EXPECT_DOUBLE_EQ(a.mean_queue(0, 1), b.mean_queue(0, 1));
}

TEST(FairShareSim, TrajectoryMatchesParentBitwise) {
  // Four Fair Share gateways: three share multi-hop connections with tied
  // rates and a silent one; the fourth has a fan-in of 70, so its classes
  // span two words of the non-empty-class bitmap, and its rates tie in
  // pairs. Churn re-decomposes the gateways mid-run, and an outage and a
  // degradation halt and re-time service. The mean queues are pinned to
  // the reference run of the dense-table class pick bit for bit: the class
  // picks, the service order and every random stream must reproduce it.
  std::vector<ffc::network::Connection> connections{
      {{0}}, {{0, 1}}, {{1}}, {{1, 2}}, {{0, 1, 2}}, {{2}}, {{2}}};
  std::vector<double> rates{0.2, 0.15, 0.2, 0.15, 0.2, 0.3, 0.0};
  for (std::size_t k = 0; k < 70; ++k) {
    connections.push_back({{3}});
    rates.push_back(0.00055 * static_cast<double>(1 + k % 35));
  }
  const Topology topo({{1.0, 0.5}, {1.2, 0.3}, {0.9, 0.2}, {1.0, 0.1}},
                      connections);
  ffc::faults::FaultPlan plan;
  plan.churn = {{1, 300.0, 900.0},
                {5, 600.0, 1400.0},
                {10, 200.0, std::numeric_limits<double>::infinity()},
                {40, 400.0, 1200.0}};
  plan.gateway_faults = {{1, 1000.0, 50.0, 0.0}, {3, 700.0, 100.0, 0.5}};
  NetworkSimulator sim(topo, SimDiscipline::FairShare, 2024, plan);
  sim.set_rates(rates);
  sim.run_for(500.0);
  sim.reset_metrics();
  sim.run_for(1500.0);

  EXPECT_EQ(sim.events_processed(), 13513u);
  EXPECT_EQ(sim.packets_delivered_total(), 3422u);
  const double totals[] = {0x1.ccb39c49c12c3p-1, 0x1.8e59111d05db7p+0,
                           0x1.0d4c6bd8e56f2p+0, 0x1.caa0dc7d9f08ap+1};
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(sim.mean_total_queue(a), totals[a]) << "gateway " << a;
  }
  struct Cell {
    std::size_t gateway;
    std::size_t connection;
    double queue;
  };
  const Cell cells[] = {
      {0, 0, 0x1.7b161ab663c6dp-2},  {0, 1, 0x1.7189ee7d1a124p-3},
      {0, 4, 0x1.658c269e91886p-2},  {1, 1, 0x1.94df049b4fb39p-3},
      {1, 2, 0x1.6b0bb878d1176p-1},  {1, 3, 0x1.ee9f2d7ac4899p-3},
      {1, 4, 0x1.a18dba776b207p-2},  {2, 3, 0x1.b6128f986f88bp-3},
      {2, 4, 0x1.ae83b95538d73p-2},  {2, 5, 0x1.aba4ae4225212p-2},
      {2, 6, 0x0p+0},                {3, 8, 0x1.e45e065ef7777p-11},
      {3, 41, 0x1.cc72dd12dd2a5p-4}, {3, 64, 0x1.f386631d1df88p-4},
      {3, 72, 0x1.57cd1c99ad73fp-2}, {3, 76, 0x1.0df3c9a71c1e1p-2},
  };
  for (const Cell& cell : cells) {
    EXPECT_EQ(sim.mean_queue(cell.gateway, cell.connection), cell.queue)
        << "gateway " << cell.gateway << " connection " << cell.connection;
  }
}

TEST(NetworkSim, Validation) {
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::Fifo, 1);
  EXPECT_THROW(sim.set_rates({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(sim.set_rates({-0.1}), std::invalid_argument);
  EXPECT_THROW(sim.run_for(-1.0), std::invalid_argument);
  // An infinite duration would never return; NaN compares false to all.
  EXPECT_THROW(sim.run_for(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sim.run_for(std::nan("")), std::invalid_argument);
  EXPECT_THROW(sim.mean_queue(5, 0), std::out_of_range);
  EXPECT_THROW(sim.mean_queue(0, 1), std::invalid_argument);
}

TEST(NetworkSim, MeanQueuesIntoMatchesMeanQueue) {
  // The bulk read is every per-entry mean_queue at once, in the CSR
  // gateway-major layout; a connection not at a gateway is rejected by the
  // per-entry read, found on its own path.
  const Topology topo = ffc::network::parking_lot(3, 2, 1.0, 0.2);
  NetworkSimulator sim(topo, SimDiscipline::FairShare, 77);
  sim.set_rates({0.1, 0.2, 0.3, 0.15, 0.25, 0.1, 0.2});
  sim.run_for(200.0);
  sim.reset_metrics();
  sim.run_for(800.0);
  std::vector<double> flat;
  sim.mean_queues_into(flat);
  const auto& csr = topo.incidence();
  ASSERT_EQ(flat.size(), csr.num_entries());
  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    const auto members = csr.connections_through(a);
    for (std::size_t k = 0; k < members.size(); ++k) {
      EXPECT_EQ(flat[csr.gateway_offset(a) + k], sim.mean_queue(a, members[k]))
          << "gateway " << a << " connection " << members[k];
      EXPECT_GT(flat[csr.gateway_offset(a) + k], 0.0);
    }
  }
  EXPECT_THROW(sim.mean_queue(0, 3), std::invalid_argument);
  EXPECT_THROW(sim.mean_queue(0, 7), std::invalid_argument);
}

}  // namespace
