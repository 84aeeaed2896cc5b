// Integration tests: the packet-level NetworkSimulator against the analytic
// queueing model (the §2 modelling approximations, quantified).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "faults/fault_plan.hpp"
#include "network/builders.hpp"
#include "oracles/ks.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "obs/metrics.hpp"
#include "sim/network_sim.hpp"
#include "sim/window_sim.hpp"
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

/// FNV-1a over the bit patterns of a sequence of doubles and counts, in
/// order: any changed bit of any value changes the digest.
class BitDigest {
 public:
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::uint64_t bits) {
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      h_ = (h_ ^ (bits & 0xff)) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What a recorded DES run is pinned to: digests of every gateway's
/// mean_total_queue, of every (gateway, connection) mean_queue in the CSR
/// layout, and of every connection's mean_delay, plus the calendar's
/// event count and high-water mark.
struct DesPin {
  std::uint64_t totals;
  std::uint64_t queues;
  std::uint64_t delays;
  std::uint64_t events;
  std::uint64_t high_water;
};

DesPin pin_of(const NetworkSimulator& sim) {
  const Topology& topo = sim.topology();
  BitDigest totals;
  BitDigest queues;
  BitDigest delays;
  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    totals.add(sim.mean_total_queue(a));
  }
  std::vector<double> flat;
  sim.mean_queues_into(flat);
  for (double q : flat) queues.add(q);
  for (std::size_t i = 0; i < topo.num_connections(); ++i) {
    delays.add(sim.mean_delay(i));
  }
  ffc::obs::MetricRegistry registry;
  sim.collect_metrics(registry);
  return {totals.value(), queues.value(), delays.value(),
          sim.events_processed(),
          registry.high_water("des.calendar_high_water")};
}

void expect_pin(const DesPin& got, const DesPin& want) {
  EXPECT_EQ(got.totals, want.totals) << std::hex << "totals 0x" << got.totals;
  EXPECT_EQ(got.queues, want.queues) << std::hex << "queues 0x" << got.queues;
  EXPECT_EQ(got.delays, want.delays) << std::hex << "delays 0x" << got.delays;
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.high_water, want.high_water);
}

/// A random network whose gateways have fan-ins of about 2 * connections /
/// gateways, with capacities of the order of the fan-in (des_fairshare's
/// shape at tier-1 size).
Topology pinned_network(std::size_t gateways, std::size_t connections,
                        std::uint64_t seed) {
  ffc::stats::Xoshiro256 rng(seed);
  ffc::network::RandomTopologyParams params;
  params.num_gateways = gateways;
  params.num_connections = connections;
  params.max_path_length = 3;
  const double fan_in =
      2.0 * static_cast<double>(connections) / static_cast<double>(gateways);
  params.mu_min = 0.8 * fan_in;
  params.mu_max = 1.2 * fan_in;
  return ffc::network::random_topology(rng, params);
}

/// Unequal rates (0.2 to 1.4 times a 0.55 share of the tightest gateway),
/// so Fair Share spreads packets over many classes and preempts often.
std::vector<double> spread_rates(const Topology& topo, std::uint64_t seed) {
  ffc::stats::Xoshiro256 rng(seed);
  std::vector<double> rates(topo.num_connections());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double share = std::numeric_limits<double>::infinity();
    for (auto a : topo.path(i)) {
      share = std::min(share, topo.gateway(a).mu /
                                  static_cast<double>(topo.fan_in(a)));
    }
    rates[i] = 0.55 * share * (0.2 + 1.2 * rng.uniform01());
  }
  return rates;
}

DesPin run_pinned(SimDiscipline discipline, ffc::faults::FaultPlan plan) {
  const Topology topo = pinned_network(6, 320, 4242);
  NetworkSimulator sim(topo, discipline, 777, std::move(plan));
  sim.set_rates(spread_rates(topo, 99));
  sim.run_for(15.0);
  sim.reset_metrics();
  sim.run_for(45.0);
  return pin_of(sim);
}

// The packet engine's every output bit, recorded from the engine with a
// 24-byte calendar entry, an 80-byte slot, a 56-byte Packet and one
// RingQueue per priority class and per Fair Queueing connection. Six
// gateways carry 320 connections of up to 3 hops (fan-in about 107, so the
// non-empty-class bitmap spans two words).
TEST(DesBits, FifoNetworkMatchesRecordedBits) {
  expect_pin(run_pinned(SimDiscipline::Fifo, {}),
             {0xd982611a8e2b8835, 0x0942869e78210476, 0xc5517b2f25d98eea,
              39035, 488});
}

TEST(DesBits, FairShareNetworkMatchesRecordedBits) {
  expect_pin(run_pinned(SimDiscipline::FairShare, {}),
             {0xa173495c215b09cf, 0xe4f84a247571298e, 0xd48c60ba7934fe89,
              41998, 493});
}

TEST(DesBits, FairQueueingNetworkMatchesRecordedBits) {
  expect_pin(run_pinned(SimDiscipline::FairQueueing, {}),
             {0x40d3776d72ffbb82, 0x02dd5fd493497058, 0x72c42611d49e1c52,
              39036, 487});
}

/// An outage (the job in service parks and re-times), a degradation and
/// churn on the pinned network.
ffc::faults::FaultPlan pinned_fault_plan() {
  ffc::faults::FaultPlan plan;
  plan.churn = {{3, 20.0, 35.0},
                {17, 25.0, std::numeric_limits<double>::infinity()},
                {200, 30.0, 50.0}};
  plan.gateway_faults = {{1, 22.0, 3.0, 0.0}, {4, 40.0, 6.0, 0.5}};
  return plan;
}

TEST(DesBits, FaultPlanRunMatchesRecordedBits) {
  // Under FIFO and under Fair Share, which re-decomposes every gateway on
  // each churn action.
  const ffc::faults::FaultPlan plan = pinned_fault_plan();
  expect_pin(run_pinned(SimDiscipline::Fifo, plan),
             {0x51d28c82ca1ac0f2, 0xeda174f2a1f2a52d, 0xf7b7bda313831ab6,
              38823, 535});
  expect_pin(run_pinned(SimDiscipline::FairShare, plan),
             {0xbf7f4005b07c5a4a, 0x470af2663cdb7ae3, 0xfe19affae4f75a62,
              41662, 564});
}

TEST(FairQueueing, PacketSizeIsDrawnAtTheNominalRate) {
  // A packet's size is drawn at mu when it arrives; a gateway fault only
  // rescales its transmission. A size drawn at mu * factor would throw at
  // an outage (a zero exponential rate) and slow a degradation f by 1/f^2.
  const DesPin pin =
      run_pinned(SimDiscipline::FairQueueing, pinned_fault_plan());
  EXPECT_GT(pin.events, 0u);

  // One connection, so Fair Queueing serves in arrival order: under a
  // constant degradation f the gateway is M/M/1 at mu f, with mean delay
  // 1 / (mu f - lambda), within E8's 0.05 + 15 % band.
  const double mu = 1.0, f = 0.5, lambda = 0.3;
  ffc::faults::FaultPlan plan;
  plan.gateway_faults = {{0, 0.0, 1e9, f}};
  NetworkSimulator sim(ffc::network::single_bottleneck(1, mu),
                       SimDiscipline::FairQueueing, 31, std::move(plan));
  sim.set_rates({lambda});
  sim.run_for(1000.0);
  sim.reset_metrics();
  sim.run_for(40000.0);
  const double expected = 1.0 / (mu * f - lambda);
  EXPECT_NEAR(sim.mean_delay(0), expected, 0.05 + 0.15 * expected);
}

TEST(DesBits, WindowNetworkMatchesRecordedBits) {
  // Adaptive DECbit windows over Fair Queueing gateways of fan-in about 80.
  const Topology topo = pinned_network(3, 120, 5150);
  ffc::sim::WindowNetworkSimulator sim(
      topo, SimDiscipline::FairQueueing, ffc::sim::WindowOptions{}, 31);
  sim.run_for(200.0);
  sim.reset_metrics();
  sim.run_for(600.0);
  BitDigest queues;
  BitDigest sources;
  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    for (auto i : topo.connections_through(a)) {
      queues.add(sim.mean_queue(a, i));
    }
  }
  for (std::size_t i = 0; i < topo.num_connections(); ++i) {
    sources.add(sim.window(i));
    sources.add(sim.mean_rtt(i));
    sources.add(sim.bit_fraction(i));
    sources.add(sim.delivered(i));
  }
  EXPECT_EQ(queues.value(), 0xfe7653592412a934u)
      << std::hex << "queues 0x" << queues.value();
  EXPECT_EQ(sources.value(), 0xc03c6139600f8903u)
      << std::hex << "sources 0x" << sources.value();
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
