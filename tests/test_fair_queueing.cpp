// Tests for the packet-by-packet Fair Queueing server (§4's realistic
// approximation of Fair Share).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/feasibility.hpp"
#include "sim/fair_queueing.hpp"
#include "sim/network_sim.hpp"
#include "sim/simulator.hpp"
#include "sim_helpers.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::queueing::g;
using ffc::sim::FairQueueingServer;
using ffc::sim::NetworkSimulator;
using ffc::sim::Packet;
using ffc::sim::SimDiscipline;
using ffc::sim::Simulator;
using ffc::stats::Xoshiro256;

std::vector<double> fq_occupancy(const std::vector<double>& rates, double mu,
                                 double horizon, std::uint64_t seed) {
  Simulator sim;
  Xoshiro256 rng(seed);
  ffc::sim::FunctionSink sink([](Packet) {});
  FairQueueingServer server(sim, mu, rates.size(), rng.split(), &sink);
  ffc::testing::PoissonSources sources(sim, server, rng, rates);
  sources.start();
  sim.run_until(horizon * 0.2);
  server.reset_metrics();
  sim.run_until(horizon);
  server.flush_metrics();
  std::vector<double> occ(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    occ[i] = server.mean_occupancy(i);
  }
  return occ;
}

TEST(FairQueueingSim, SingleConnectionIsPlainMm1) {
  const auto occ = fq_occupancy({0.5}, 1.0, 60000.0, 5);
  EXPECT_NEAR(occ[0], g(0.5), 0.08);
}

TEST(FairQueueingSim, EqualRatesShareEvenly) {
  const auto occ = fq_occupancy({0.2, 0.2, 0.2}, 1.0, 60000.0, 6);
  for (double q : occ) EXPECT_NEAR(q, g(0.6) / 3.0, 0.08);
}

TEST(FairQueueingSim, TotalOccupancyIsWorkConserving) {
  // Whatever FQ does internally, the server is nonstalling, so the total
  // occupancy must match the M/M/1 aggregate.
  const std::vector<double> rates{0.15, 0.3, 0.35};
  const auto occ = fq_occupancy(rates, 1.0, 80000.0, 7);
  double total = 0.0;
  for (double q : occ) total += q;
  EXPECT_NEAR(total, g(0.8), 0.5);
}

TEST(FairQueueingSim, ApproximatesFairShareUnderAsymmetricLoad) {
  const std::vector<double> rates{0.1, 0.25, 0.4};
  const auto occ = fq_occupancy(rates, 1.0, 80000.0, 8);
  ffc::queueing::FairShare fs;
  const auto expected = fs.queue_lengths(rates, 1.0);
  // Non-preemptive slack: within roughly one in-flight packet.
  EXPECT_NEAR(occ[0], expected[0], 0.35);
  EXPECT_NEAR(occ[1], expected[1], 0.5);
  // Ordering is preserved: bigger senders hold bigger queues.
  EXPECT_LT(occ[0], occ[1]);
  EXPECT_LT(occ[1], occ[2]);
}

TEST(FairQueueingSim, InsulatesPoliteSendersFromOverload) {
  // Greedy sender pushes the gateway past capacity; polite senders' queues
  // must stay small (bounded), unlike FIFO where they diverge.
  const std::vector<double> rates{0.1, 0.2, 0.9};
  const auto occ = fq_occupancy(rates, 1.0, 40000.0, 9);
  EXPECT_LT(occ[0], 1.5);
  EXPECT_LT(occ[1], 2.5);
  EXPECT_GT(occ[2], 100.0);  // the greedy one owns the backlog
}

TEST(FairQueueingSim, AvailableThroughNetworkSimulator) {
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  NetworkSimulator sim(topo, SimDiscipline::FairQueueing, 11);
  sim.set_rates({0.2, 0.3});
  sim.run_for(5000.0);
  sim.reset_metrics();
  sim.run_for(30000.0);
  EXPECT_NEAR(sim.throughput(0), 0.2, 0.02);
  EXPECT_NEAR(sim.throughput(1), 0.3, 0.02);
  EXPECT_GT(sim.mean_queue(0, 1), sim.mean_queue(0, 0));
}

TEST(FairQueueingSim, EqualHeadTagsGoToTheLowestLocalIndex) {
  // An infinite service rate samples every packet's size as 0, so packets
  // that arrive while the first one is in service all carry its finish tag:
  // their head tags tie, and each tie must go to the lowest local index,
  // whatever the arrival order. Fan-in 130 spreads the contenders over
  // three words of the backlog bitmap.
  Simulator sim;
  std::vector<std::uint64_t> served;
  ffc::sim::FunctionSink sink([&](Packet p) { served.push_back(p.id); });
  FairQueueingServer server(sim, std::numeric_limits<double>::infinity(),
                            130, Xoshiro256(3), &sink);
  std::uint64_t id = 0;
  for (std::uint32_t k : {129u, 65u, 3u, 128u, 64u, 3u, 1u, 0u}) {
    Packet packet;
    packet.id = id++;
    packet.connection = k;
    server.arrival(packet, k);
  }
  sim.run_until(1.0);
  // By id: 129 is served first (the server was idle), then 0, 1, the two
  // packets of 3 in their own FIFO order, 64, 65 and 128.
  EXPECT_EQ(served, (std::vector<std::uint64_t>{0, 7, 6, 2, 5, 4, 1, 3}));
}

TEST(FairQueueingSim, DeterministicForFixedSeed) {
  const auto a = fq_occupancy({0.2, 0.4}, 1.0, 5000.0, 1234);
  const auto b = fq_occupancy({0.2, 0.4}, 1.0, 5000.0, 1234);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_DOUBLE_EQ(a[1], b[1]);
}

}  // namespace
