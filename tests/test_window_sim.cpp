// Tests for the sliding-window / DECbit simulator.
#include <gtest/gtest.h>

#include <cmath>
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
  WindowNetworkSimulator ws(topo, SimDiscipline::Fifo, WindowOptions{}, 1);
  EXPECT_THROW(ws.pin_window(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ws.run_for(-1.0), std::invalid_argument);
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
