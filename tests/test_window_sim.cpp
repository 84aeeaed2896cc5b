// Tests for the sliding-window / DECbit simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "exec/param_grid.hpp"
#include "exec/sweep_runner.hpp"
#include "network/builders.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/window_sim.hpp"

namespace {

using ffc::network::Connection;
using ffc::network::Topology;
using ffc::sim::BitRule;
using ffc::sim::SimDiscipline;
using ffc::sim::WindowNetworkSimulator;
using ffc::sim::WindowOptions;

TEST(WindowSim, FixedWindowThroughputObeysLittlesLaw) {
  // Non-adaptive window W over an uncongested path: throughput ~ W / RTT.
  auto topo = ffc::network::single_bottleneck(1, /*mu=*/50.0,
                                              /*latency=*/1.0);
  WindowOptions opts;
  opts.adapt = false;
  opts.initial_window = 4.0;
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, opts, 3);
  ws.run_for(2000.0);
  ws.reset_metrics();
  ws.run_for(20000.0);
  // RTT ~ 1.0 (forward latency) + 1.0 (ACK) + small service time.
  const double expected = 4.0 / ws.mean_rtt(0);
  EXPECT_NEAR(ws.throughput(0), expected, 0.1 * expected);
}

TEST(WindowSim, ConservesInFlightPackets) {
  auto topo = ffc::network::single_bottleneck(2, 1.0, 0.2);
  WindowOptions opts;
  opts.adapt = false;
  opts.initial_window = 3.0;
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, opts, 4);
  ws.run_for(5000.0);
  // Deliveries happen and windows never exceed their caps.
  EXPECT_GT(ws.delivered(0), 100u);
  EXPECT_GT(ws.delivered(1), 100u);
  EXPECT_DOUBLE_EQ(ws.window(0), 3.0);
}

TEST(WindowSim, AdaptiveWindowRegulatesQueue) {
  // One source, slow gateway: adaptation must keep the queue bounded near
  // the bit threshold instead of filling the window cap.
  auto topo = ffc::network::single_bottleneck(1, 1.0, 0.5);
  WindowOptions opts;
  opts.bit_threshold = 2.0;
  opts.max_window = 64.0;
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, opts, 5);
  ws.run_for(5000.0);
  ws.reset_metrics();
  ws.run_for(30000.0);
  EXPECT_LT(ws.mean_queue(0, 0), 6.0);
  EXPECT_GT(ws.throughput(0), 0.5);  // still uses most of the gateway
  EXPECT_GT(ws.bit_fraction(0), 0.05);
}

TEST(WindowSim, ShortRttConnectionWinsUnderAggregateBits) {
  Topology topo({{1.0, 0.1}, {100.0, 5.0}},
                {Connection{{0}}, Connection{{0, 1}}});
  WindowOptions opts;
  opts.bit_rule = BitRule::AggregateQueue;
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, opts, 42);
  ws.run_for(20000.0);
  ws.reset_metrics();
  ws.run_for(60000.0);
  EXPECT_GT(ws.throughput(0) / ws.throughput(1), 4.0);
}

TEST(WindowSim, OwnQueueBitsRestoreRoughFairness) {
  Topology topo({{1.0, 0.1}, {100.0, 5.0}},
                {Connection{{0}}, Connection{{0, 1}}});
  WindowOptions opts;
  opts.bit_rule = BitRule::OwnQueue;
  WindowNetworkSimulator ws(topo, SimDiscipline::FairQueueing, opts, 42);
  ws.run_for(20000.0);
  ws.reset_metrics();
  ws.run_for(60000.0);
  EXPECT_LT(ws.throughput(0) / ws.throughput(1), 2.0);
}

TEST(WindowSim, FairQueueingProtectsAdaptiveFromPinnedFirehose) {
  auto topo = ffc::network::single_bottleneck(2, 1.0, 0.5);
  WindowOptions opts;
  opts.bit_rule = BitRule::OwnQueue;

  WindowNetworkSimulator fifo(topo, SimDiscipline::Fifo, opts, 7);
  fifo.pin_window(1, 64.0);
  fifo.run_for(5000.0);
  fifo.reset_metrics();
  fifo.run_for(40000.0);

  WindowNetworkSimulator fq(topo, SimDiscipline::FairQueueing, opts, 7);
  fq.pin_window(1, 64.0);
  fq.run_for(5000.0);
  fq.reset_metrics();
  fq.run_for(40000.0);

  // Under FIFO the firehose owns the queue and the adaptive source starves;
  // FQ preserves a far larger share for the adaptive source.
  EXPECT_GT(fq.throughput(0), 2.0 * fifo.throughput(0));
  EXPECT_GT(fq.throughput(0), 0.25);
}

TEST(WindowSim, FairShareDisciplineRejected) {
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  EXPECT_THROW(WindowNetworkSimulator(topo, SimDiscipline::FairShare,
                                      WindowOptions{}, 1),
               std::invalid_argument);
}

TEST(WindowSim, MeanQueueRejectsConnectionOffTheGateway) {
  // Connection 1 crosses only gateway 1; asking gateway 0 for its queue is
  // an error, not gateway 0's first local connection.
  const Topology topo({{1.0, 0.1}, {1.0, 0.1}},
                      {Connection{{0}}, Connection{{1}}});
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, WindowOptions{}, 9);
  ws.run_for(100.0);
  EXPECT_GT(ws.mean_queue(0, 0), 0.0);
  EXPECT_THROW(ws.mean_queue(0, 1), std::invalid_argument);
  EXPECT_THROW(ws.mean_queue(1, 0), std::invalid_argument);
}

TEST(WindowSim, TrajectoryMatchesParentBitwise) {
  // E14's four cells (bit rule x discipline, seed 42) over a short horizon,
  // pinned exactly: the event order, the random streams, the marking and
  // the window arithmetic all have to reproduce the reference run bit for
  // bit, so any change to the packet timing shows here in well under a
  // second instead of only in the full reproduction.
  struct Cell {
    BitRule rule;
    SimDiscipline discipline;
    std::uint64_t delivered[2];
    double window[2];
    double mean_rtt[2];
    double bit_fraction[2];
  };
  const Cell cells[] = {
      {BitRule::AggregateQueue, SimDiscipline::Fifo, {1847, 175},
       {0x1.5c146b22bb371p+1, 0x1.57p+0},
       {0x1.a6ea2f2dbda6dp+1, 0x1.c504ca2cbe9dp+3},
       {0x1.83cfc41f99fcfp-1, 0x1.e898231bcb565p-1}},
      {BitRule::AggregateQueue, SimDiscipline::FairQueueing, {1843, 180},
       {0x1.662b1ec05f9f7p+0, 0x1p+0},
       {0x1.b18065c459eecp+1, 0x1.9cb0cf419e41bp+3},
       {0x1.8343a56f43173p-1, 0x1.f1c71c71c71c7p-1}},
      {BitRule::OwnQueue, SimDiscipline::Fifo, {1377, 650},
       {0x1.405d7efa33c2ap+1, 0x1.e2693209ccafep+1},
       {0x1.28394376ea5eap+2, 0x1.fb68e376a3da3p+3},
       {0x1.8963766cf1af5p-1, 0x1.fe6cb398064d3p-2}},
      {BitRule::OwnQueue, SimDiscipline::FairQueueing, {1228, 800},
       {0x1.d06fdad3695ap+1, 0x1.38bb4f2bc7781p+2},
       {0x1.4bc4c93d28469p+2, 0x1.fd4fabcb06264p+3},
       {0x1.849619042b5c9p-1, 0x1.1674c59d31675p-1}},
  };
  const Topology topo({{1.0, 0.1}, {100.0, 5.0}},
                      {Connection{{0}}, Connection{{0, 1}}});
  for (const Cell& cell : cells) {
    WindowOptions opts;
    opts.bit_rule = cell.rule;
    WindowNetworkSimulator ws(topo, cell.discipline, opts, 42);
    ws.run_for(1000.0);
    ws.reset_metrics();
    ws.run_for(2000.0);
    for (std::size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE(testing::Message()
                   << "rule " << static_cast<int>(cell.rule) << " discipline "
                   << static_cast<int>(cell.discipline) << " connection "
                   << i);
      EXPECT_EQ(ws.delivered(i), cell.delivered[i]);
      EXPECT_EQ(ws.window(i), cell.window[i]);
      EXPECT_EQ(ws.mean_rtt(i), cell.mean_rtt[i]);
      EXPECT_EQ(ws.bit_fraction(i), cell.bit_fraction[i]);
    }
  }
}

TEST(WindowSim, OptionValidation) {
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  WindowOptions bad;
  bad.decrease = 1.0;
  EXPECT_THROW(WindowNetworkSimulator(topo, SimDiscipline::Fifo, bad, 1),
               std::invalid_argument);
  bad = WindowOptions{};
  bad.min_window = 0.5;
  EXPECT_THROW(WindowNetworkSimulator(topo, SimDiscipline::Fifo, bad, 1),
               std::invalid_argument);
  // An infinite window would keep sending forever: the cap must be finite.
  const double inf = std::numeric_limits<double>::infinity();
  bad = WindowOptions{};
  bad.max_window = inf;
  EXPECT_THROW(WindowNetworkSimulator(topo, SimDiscipline::Fifo, bad, 1),
               std::invalid_argument);
  bad.initial_window = inf;
  EXPECT_THROW(WindowNetworkSimulator(topo, SimDiscipline::Fifo, bad, 1),
               std::invalid_argument);
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, WindowOptions{}, 1);
  EXPECT_THROW(ws.pin_window(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ws.pin_window(0, inf), std::invalid_argument);
  EXPECT_THROW(ws.pin_window(0, WindowOptions{}.max_window + 1.0),
               std::invalid_argument);
  EXPECT_THROW(ws.pin_window(0, std::nan("")), std::invalid_argument);
  ws.pin_window(0, WindowOptions{}.max_window);  // the cap itself is allowed
  EXPECT_DOUBLE_EQ(ws.window(0), WindowOptions{}.max_window);
  EXPECT_THROW(ws.run_for(-1.0), std::invalid_argument);
  EXPECT_THROW(ws.run_for(inf), std::invalid_argument);
  EXPECT_THROW(ws.run_for(std::nan("")), std::invalid_argument);
}

TEST(WindowSim, DeterministicForSeed) {
  auto topo = ffc::network::single_bottleneck(2, 1.0, 0.2);
  WindowNetworkSimulator a(topo, SimDiscipline::FairQueueing,
                           WindowOptions{}, 99);
  WindowNetworkSimulator b(topo, SimDiscipline::FairQueueing,
                           WindowOptions{}, 99);
  a.run_for(2000.0);
  b.run_for(2000.0);
  EXPECT_EQ(a.delivered(0), b.delivered(0));
  EXPECT_DOUBLE_EQ(a.window(1), b.window(1));
}

// ---- PR 9: metric edge cases and sweep determinism ------------------------

TEST(WindowSim, MetricsAreZeroBeforeAnyAckReturns) {
  // Latency is charged on the ACK leg: with 50 time units each way no ACK
  // returns before t = 100, so after 60 units packets have been delivered
  // at the sink but every per-ACK statistic must still read 0 (not NaN
  // from a 0/0) while the ACKs are in flight.
  auto topo = ffc::network::single_bottleneck(1, 1.0, 50.0);
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, WindowOptions{}, 7);
  EXPECT_DOUBLE_EQ(ws.mean_rtt(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.bit_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.throughput(0), 0.0);
  ws.run_for(60.0);
  EXPECT_GT(ws.delivered(0), 0u);  // the initial window drained the queue
  EXPECT_DOUBLE_EQ(ws.mean_rtt(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.bit_fraction(0), 0.0);
  // ...and a metric reset mid-flight keeps them at 0 rather than negative.
  ws.reset_metrics();
  EXPECT_DOUBLE_EQ(ws.mean_rtt(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.bit_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.throughput(0), 0.0);
}

TEST(WindowSim, PinnedWindowSurvivesMetricResets) {
  auto topo = ffc::network::single_bottleneck(2, 1.0, 0.2);
  WindowNetworkSimulator ws(topo, SimDiscipline::FairQueueing,
                            WindowOptions{}, 11);
  ws.pin_window(0, 8.0);
  ws.run_for(2000.0);
  EXPECT_DOUBLE_EQ(ws.window(0), 8.0);  // pinned: adaptation never moves it
  ws.reset_metrics();
  ws.run_for(2000.0);
  EXPECT_DOUBLE_EQ(ws.window(0), 8.0);
  EXPECT_NE(ws.window(1), WindowOptions{}.initial_window);  // peer adapts
  // The reset only clears statistics; the pinned source keeps delivering.
  EXPECT_GT(ws.throughput(0), 0.0);
  EXPECT_GT(ws.bit_fraction(0), 0.0);
}

TEST(WindowSim, SweepIsBitwiseDeterministicAcrossJobs) {
  // The E14-style fan-out contract: a sweep of window simulations must give
  // bitwise-identical results at any --jobs (each task's simulator derives
  // its own seed; nothing leaks across fan-out slots).
  ffc::exec::ParamGrid grid;
  grid.axis("latency", ffc::exec::ParamGrid::linspace(0.1, 0.5, 5));
  const auto task = [](const ffc::exec::GridPoint& p, std::uint64_t seed,
                       ffc::obs::MetricRegistry&) -> std::pair<double, double> {
    auto topo = ffc::network::single_bottleneck(2, 1.0, p.get("latency"));
    WindowNetworkSimulator ws(topo, SimDiscipline::FairQueueing,
                              WindowOptions{}, seed);
    ws.run_for(3000.0);
    ws.reset_metrics();
    ws.run_for(3000.0);
    return {ws.window(0), ws.throughput(1)};
  };
  ffc::exec::SweepRunner serial(ffc::exec::SweepOptions{.jobs = 1,
                                                        .base_seed = 14});
  ffc::exec::SweepRunner parallel(ffc::exec::SweepOptions{.jobs = 4,
                                                          .base_seed = 14});
  const auto a = serial.run(grid, task);
  const auto b = parallel.run(grid, task);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "cell " << i;    // bitwise
    EXPECT_EQ(a[i].second, b[i].second) << "cell " << i;  // bitwise
  }
}

}  // namespace
