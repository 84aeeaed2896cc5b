// ParallelNetworkSimulator: the conservative sharded DES (docs/PARALLEL.md).
//
// The load-bearing contracts, in order of importance:
//   1. shards=1 is bitwise-identical to the single-calendar NetworkSimulator
//      (same RNG split order, same event order, same metric names), plain
//      and impaired;
//   2. a sharded run is byte-identical at every worker count (jobs is a
//      throughput knob, never a results knob);
//   3. a sharded run agrees with the single-calendar simulator statistically
//      (same model, independent RNG streams);
//   4. partitions that cannot be synchronized conservatively (zero-latency
//      cross-shard hops) or are malformed are rejected at construction.
#include "sim/parallel_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "faults/fault_plan.hpp"
#include "network/builders.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/network_sim.hpp"

namespace ffc::sim {

// gtest prints a TEST_P parameter into each test's listed name, and ctest
// registers that name. Print a discipline by its name, not its raw bytes.
void PrintTo(SimDiscipline discipline, std::ostream* os) {
  switch (discipline) {
    case SimDiscipline::Fifo:
      *os << "Fifo";
      return;
    case SimDiscipline::FairShare:
      *os << "FairShare";
      return;
    case SimDiscipline::FairQueueing:
      *os << "FairQueueing";
      return;
  }
}

}  // namespace ffc::sim

namespace {

using ffc::network::Topology;
using ffc::sim::NetworkSimulator;
using ffc::sim::ParallelNetworkSimulator;
using ffc::sim::ShardPlan;
using ffc::sim::SimDiscipline;

constexpr std::uint64_t kSeed = 20260807ULL;

ffc::faults::FaultPlan impairment_plan() {
  ffc::faults::FaultPlan plan;
  plan.gateway_faults.push_back({/*gateway=*/0, /*start=*/30.0,
                                 /*duration=*/20.0, /*factor=*/0.0});
  plan.gateway_faults.push_back({/*gateway=*/1, /*start=*/80.0,
                                 /*duration=*/40.0, /*factor=*/0.4});
  plan.churn.push_back({/*connection=*/1, /*leave=*/50.0, /*rejoin=*/120.0});
  return plan;
}

/// Everything two simulator runs must agree on, bit for bit.
struct RunFingerprint {
  std::vector<std::uint64_t> delivered;
  std::vector<double> mean_delay;
  std::vector<double> throughput;
  std::vector<double> mean_total_queue;
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered_total = 0;
  ffc::obs::MetricRegistry metrics;

  template <typename Sim>
  static RunFingerprint of(const Sim& sim) {
    RunFingerprint fp;
    const Topology& topo = sim.topology();
    for (std::size_t i = 0; i < topo.num_connections(); ++i) {
      fp.delivered.push_back(sim.delivered(i));
      fp.mean_delay.push_back(sim.mean_delay(i));
      fp.throughput.push_back(sim.throughput(i));
    }
    for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
      fp.mean_total_queue.push_back(sim.mean_total_queue(a));
    }
    fp.events = sim.events_processed();
    fp.generated = sim.packets_generated();
    fp.delivered_total = sim.packets_delivered_total();
    sim.collect_metrics(fp.metrics);
    return fp;
  }
};

void expect_identical(const RunFingerprint& a, const RunFingerprint& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.mean_delay, b.mean_delay);      // exact double equality
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.mean_total_queue, b.mean_total_queue);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
}

void expect_identical_metrics(const RunFingerprint& a,
                              const RunFingerprint& b) {
  EXPECT_EQ(a.metrics.counters(), b.metrics.counters());
  EXPECT_EQ(a.metrics.gauges(), b.metrics.gauges());
  EXPECT_EQ(a.metrics.maxima(), b.metrics.maxima());
}

// ---- contract 1: shards=1 reproduces NetworkSimulator bitwise -------------

class ParallelSimDisciplines
    : public ::testing::TestWithParam<SimDiscipline> {};

TEST_P(ParallelSimDisciplines, OneShardBitwiseIdenticalToSingleCalendar) {
  const Topology topo = ffc::network::parking_lot(3, 1, 1.0, 0.25);
  const std::vector<double> rates = {0.15, 0.2, 0.25, 0.3};

  NetworkSimulator single(topo, GetParam(), kSeed);
  ParallelNetworkSimulator sharded(
      topo, GetParam(), kSeed, ShardPlan::contiguous(topo.num_gateways(), 1));
  ASSERT_EQ(sharded.num_shards(), 1u);

  single.set_rates(rates);
  sharded.set_rates(rates);
  single.run_for(50.0);
  sharded.run_for(50.0);
  single.reset_metrics();
  sharded.reset_metrics();
  single.run_for(150.0);
  sharded.run_for(150.0);

  const auto a = RunFingerprint::of(single);
  const auto b = RunFingerprint::of(sharded);
  expect_identical(a, b);
  // The metric dump -- names and values -- is byte-identical too (the
  // sharded run emits no par.* counters with one shard).
  expect_identical_metrics(a, b);
  EXPECT_EQ(single.delay_samples(0), sharded.delay_samples(0));
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, ParallelSimDisciplines,
                         ::testing::Values(SimDiscipline::Fifo,
                                           SimDiscipline::FairShare,
                                           SimDiscipline::FairQueueing));

TEST(ParallelSim, OneShardBitwiseIdenticalWhenImpaired) {
  const Topology topo = ffc::network::tandem(2, 3, 1.0, 0.5, 0.5);
  const std::vector<double> rates = {0.1, 0.12, 0.14};

  NetworkSimulator single(topo, SimDiscipline::FairShare, kSeed,
                          impairment_plan());
  ParallelNetworkSimulator sharded(
      topo, SimDiscipline::FairShare, kSeed,
      ShardPlan::contiguous(topo.num_gateways(), 1), impairment_plan());
  EXPECT_TRUE(sharded.impaired());

  single.set_rates(rates);
  sharded.set_rates(rates);
  single.run_for(200.0);
  sharded.run_for(200.0);

  expect_identical(RunFingerprint::of(single), RunFingerprint::of(sharded));
  const auto counters = sharded.fault_counters();
  EXPECT_EQ(counters.gateway_outages, single.fault_counters().gateway_outages);
  EXPECT_EQ(counters.source_leaves, single.fault_counters().source_leaves);
  EXPECT_EQ(counters.source_joins, single.fault_counters().source_joins);
}

// ---- contract 2: worker count never changes results -----------------------

TEST(ParallelSim, ShardedRunByteIdenticalAtEveryWorkerCount) {
  const Topology topo = ffc::network::parking_lot(3, 1, 1.0, 0.25);
  const std::vector<double> rates = {0.15, 0.2, 0.25, 0.3};

  RunFingerprint fingerprints[3];
  std::uint64_t windows[3] = {};
  std::uint64_t handoffs[3] = {};
  const std::size_t jobs_values[3] = {1, 2, 5};
  for (int v = 0; v < 3; ++v) {
    ParallelNetworkSimulator sim(
        topo, SimDiscipline::Fifo, kSeed,
        ShardPlan::contiguous(topo.num_gateways(), 3, jobs_values[v]));
    ASSERT_EQ(sim.num_shards(), 3u);
    sim.set_rates(rates);
    sim.run_for(150.0);
    fingerprints[v] = RunFingerprint::of(sim);
    windows[v] = sim.windows();
    handoffs[v] = sim.handoffs();
  }
  for (int v = 1; v < 3; ++v) {
    expect_identical(fingerprints[0], fingerprints[v]);
    expect_identical_metrics(fingerprints[0], fingerprints[v]);
    EXPECT_EQ(windows[0], windows[v]);
    EXPECT_EQ(handoffs[0], handoffs[v]);
  }
  EXPECT_GT(handoffs[0], 0u);  // the long connection really crosses shards
}

TEST(ParallelSim, ImpairedShardedRunIsDeterministic) {
  const Topology topo = ffc::network::tandem(2, 3, 1.0, 0.5, 0.5);
  const std::vector<double> rates = {0.1, 0.12, 0.14};

  RunFingerprint fingerprints[2];
  for (int v = 0; v < 2; ++v) {
    ParallelNetworkSimulator sim(
        topo, SimDiscipline::FairShare, kSeed,
        ShardPlan::contiguous(topo.num_gateways(), 2, v == 0 ? 1 : 4),
        impairment_plan());
    sim.set_rates(rates);
    sim.run_for(200.0);
    fingerprints[v] = RunFingerprint::of(sim);
    // The compiled schedule fired exactly once across shards: one outage,
    // one degradation, two recoveries, one leave, one rejoin.
    const auto counters = sim.fault_counters();
    EXPECT_EQ(counters.gateway_outages, 1u);
    EXPECT_EQ(counters.gateway_degradations, 1u);
    EXPECT_EQ(counters.gateway_recoveries, 2u);
    EXPECT_EQ(counters.source_leaves, 1u);
    EXPECT_EQ(counters.source_joins, 1u);
  }
  expect_identical(fingerprints[0], fingerprints[1]);
  expect_identical_metrics(fingerprints[0], fingerprints[1]);
}

TEST(ParallelSim, RepeatedRunsAreIdentical) {
  const Topology topo = ffc::network::tandem(3, 2, 1.0, 0.5, 0.4);
  const std::vector<double> rates = {0.2, 0.15};
  RunFingerprint fingerprints[2];
  for (int v = 0; v < 2; ++v) {
    ParallelNetworkSimulator sim(
        topo, SimDiscipline::Fifo, kSeed,
        ShardPlan::contiguous(topo.num_gateways(), 3));
    sim.set_rates(rates);
    sim.run_for(120.0);
    fingerprints[v] = RunFingerprint::of(sim);
  }
  expect_identical(fingerprints[0], fingerprints[1]);
}

// ---- contract 3: sharded and single-calendar agree statistically ----------

TEST(ParallelSim, ShardedAgreesWithSingleCalendarStatistically) {
  // Same model, different (independent) RNG streams: steady-state
  // throughput must match the offered load on both engines, and the
  // per-gateway mean queues must agree within Monte-Carlo noise.
  const Topology topo = ffc::network::tandem(2, 2, 1.0, 0.5, 0.5);
  const std::vector<double> rates = {0.12, 0.18};
  const double warmup = 200.0;
  const double horizon = 4000.0;

  NetworkSimulator single(topo, SimDiscipline::Fifo, kSeed);
  ParallelNetworkSimulator sharded(
      topo, SimDiscipline::Fifo, kSeed,
      ShardPlan::contiguous(topo.num_gateways(), 2));
  single.set_rates(rates);
  sharded.set_rates(rates);
  single.run_for(warmup);
  sharded.run_for(warmup);
  single.reset_metrics();
  sharded.reset_metrics();
  single.run_for(horizon);
  sharded.run_for(horizon);

  for (std::size_t i = 0; i < rates.size(); ++i) {
    // Both engines must deliver the offered load at steady state.
    EXPECT_NEAR(single.throughput(i), rates[i], 0.1 * rates[i]);
    EXPECT_NEAR(sharded.throughput(i), rates[i], 0.1 * rates[i]);
    EXPECT_NEAR(sharded.mean_delay(i), single.mean_delay(i),
                0.15 * single.mean_delay(i));
  }
  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    EXPECT_NEAR(sharded.mean_total_queue(a), single.mean_total_queue(a),
                0.2 * single.mean_total_queue(a) + 0.02);
  }
}

// ---- contract 4: malformed / unsynchronizable partitions are rejected -----

TEST(ParallelSim, ZeroLatencyCrossShardHopIsRejected) {
  const Topology topo = ffc::network::tandem(2, 2, 1.0, 0.5, /*latency=*/0.0);
  EXPECT_THROW(ParallelNetworkSimulator(
                   topo, SimDiscipline::Fifo, kSeed,
                   ShardPlan::contiguous(topo.num_gateways(), 2)),
               std::invalid_argument);
  // The same topology is fine with one shard: no cross-shard edges.
  ParallelNetworkSimulator sim(topo, SimDiscipline::Fifo, kSeed,
                               ShardPlan::contiguous(topo.num_gateways(), 1));
  EXPECT_EQ(sim.num_shards(), 1u);
}

TEST(ParallelSim, MalformedPartitionsAreRejected) {
  const Topology topo = ffc::network::tandem(2, 2, 1.0, 0.5, 0.5);

  ShardPlan wrong_size;
  wrong_size.shard_of_gateway = {0};  // topology has two gateways
  wrong_size.num_shards = 1;
  EXPECT_THROW(
      ParallelNetworkSimulator(topo, SimDiscipline::Fifo, kSeed, wrong_size),
      std::invalid_argument);

  ShardPlan out_of_range;
  out_of_range.shard_of_gateway = {0, 2};  // shard 2 of 2
  out_of_range.num_shards = 2;
  EXPECT_THROW(ParallelNetworkSimulator(topo, SimDiscipline::Fifo, kSeed,
                                        out_of_range),
               std::invalid_argument);

  ShardPlan empty_shard;
  empty_shard.shard_of_gateway = {0, 0};  // shard 1 owns nothing
  empty_shard.num_shards = 2;
  EXPECT_THROW(ParallelNetworkSimulator(topo, SimDiscipline::Fifo, kSeed,
                                        empty_shard),
               std::invalid_argument);

  ShardPlan no_shards;
  no_shards.num_shards = 0;
  EXPECT_THROW(
      ParallelNetworkSimulator(topo, SimDiscipline::Fifo, kSeed, no_shards),
      std::invalid_argument);

  EXPECT_THROW(ShardPlan::contiguous(2, 0), std::invalid_argument);
  // More shards than gateways clamps rather than throws.
  EXPECT_EQ(ShardPlan::contiguous(2, 5).num_shards, 2u);
}

// ---- protocol bookkeeping -------------------------------------------------

TEST(ParallelSim, LookaheadAndWindowAccounting) {
  const Topology topo = ffc::network::tandem(2, 2, 1.0, 0.5, 0.5);
  ParallelNetworkSimulator sim(topo, SimDiscipline::Fifo, kSeed,
                               ShardPlan::contiguous(topo.num_gateways(), 2));
  // The only cross-shard hop departs gateway 0, whose latency is 0.5.
  EXPECT_DOUBLE_EQ(sim.lookahead(), 0.5);
  sim.run_for(2.0);
  EXPECT_EQ(sim.windows(), 4u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);

  // One shard has infinite lookahead: a whole run is a single window.
  ParallelNetworkSimulator solo(topo, SimDiscipline::Fifo, kSeed,
                                ShardPlan::contiguous(topo.num_gateways(), 1));
  sim.run_for(0.0);  // degenerate window is legal
  solo.run_for(100.0);
  EXPECT_EQ(solo.windows(), 1u);
  EXPECT_DOUBLE_EQ(solo.now(), 100.0);
}

TEST(ParallelSim, RejectsInvalidRatesAndDurations) {
  const Topology topo = ffc::network::tandem(2, 2, 1.0, 0.5, 0.5);
  ParallelNetworkSimulator sim(topo, SimDiscipline::Fifo, kSeed,
                               ShardPlan::contiguous(topo.num_gateways(), 2));
  EXPECT_THROW(sim.set_rates({0.1}), std::invalid_argument);
  EXPECT_THROW(sim.set_rates({0.1, -0.2}), std::invalid_argument);
  EXPECT_THROW(sim.run_for(-1.0), std::invalid_argument);
  EXPECT_THROW(sim.run_for(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(sim.run_for(std::nan("")), std::invalid_argument);
}

}  // namespace
