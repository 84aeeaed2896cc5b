// Integration tests: closed-loop feedback on the packet simulator vs the
// analytic synchronous model.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/steady_state.hpp"
#include "network/builders.hpp"
#include "faults/fault_plan.hpp"
#include "queueing/fifo.hpp"
#include "sim/feedback_sim.hpp"

namespace {

using ffc::core::AdditiveTsi;
using ffc::core::FeedbackStyle;
using ffc::core::RationalSignal;
using ffc::sim::ClosedLoopOptions;
using ffc::sim::ClosedLoopSimulator;
using ffc::sim::SimDiscipline;

std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> homogeneous(
    std::size_t n, double eta, double beta) {
  return {n, std::make_shared<AdditiveTsi>(eta, beta)};
}

TEST(ClosedLoop, ConvergesNearFairSteadyStateIndividualFairShare) {
  const std::size_t n = 3;
  auto topo = ffc::network::single_bottleneck(n, 1.0);
  ClosedLoopOptions opts;
  opts.epoch_duration = 3000.0;
  ClosedLoopSimulator loop(topo, SimDiscipline::FairShare,
                           std::make_shared<RationalSignal>(),
                           FeedbackStyle::Individual,
                           homogeneous(n, 0.15, 0.5), 112233, opts);
  const auto records = loop.run({0.05, 0.2, 0.35}, 40);
  ASSERT_EQ(records.size(), 40u);
  // The analytic fair steady state is 0.5/3 each; noisy measurement keeps
  // the loop hovering around it.
  const auto& final_rates = loop.rates();
  for (double r : final_rates) EXPECT_NEAR(r, 0.5 / 3.0, 0.05);
}

TEST(ClosedLoop, AggregateFifoRegulatesTotalLoadButNotShares) {
  const std::size_t n = 2;
  auto topo = ffc::network::single_bottleneck(n, 1.0);
  ClosedLoopOptions opts;
  opts.epoch_duration = 3000.0;
  ClosedLoopSimulator loop(topo, SimDiscipline::Fifo,
                           std::make_shared<RationalSignal>(),
                           FeedbackStyle::Aggregate, homogeneous(n, 0.1, 0.5),
                           445566, opts);
  loop.run({0.05, 0.35}, 40);
  const auto& rates = loop.rates();
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_NEAR(total, 0.5, 0.06);
  // The initial 0.3 spread survives (aggregate additive feedback cannot
  // erase it).
  EXPECT_GT(rates[1] - rates[0], 0.15);
}

TEST(ClosedLoop, TracksAnalyticModelTrajectory) {
  // Epoch-by-epoch, the simulated rates should stay close to the analytic
  // iteration from the same start.
  const std::size_t n = 2;
  auto topo = ffc::network::single_bottleneck(n, 1.0);
  ClosedLoopOptions opts;
  opts.epoch_duration = 4000.0;
  ClosedLoopSimulator loop(topo, SimDiscipline::Fifo,
                           std::make_shared<RationalSignal>(),
                           FeedbackStyle::Aggregate,
                           homogeneous(n, 0.2, 0.5), 777, opts);
  const auto records = loop.run({0.1, 0.1}, 15);

  ffc::core::FlowControlModel model(
      topo, std::make_shared<ffc::queueing::Fifo>(),
      std::make_shared<RationalSignal>(), FeedbackStyle::Aggregate,
      std::make_shared<AdditiveTsi>(0.2, 0.5));
  std::vector<double> r{0.1, 0.1};
  for (std::size_t e = 0; e < records.size(); ++e) {
    EXPECT_NEAR(records[e].rates[0], r[0], 0.04) << "epoch " << e;
    r = model.step(r);
  }
}

TEST(ClosedLoop, RecordsSignalsAndDelays) {
  auto topo = ffc::network::single_bottleneck(1, 1.0, 0.5);
  ClosedLoopOptions opts;
  opts.epoch_duration = 2000.0;
  ClosedLoopSimulator loop(topo, SimDiscipline::Fifo,
                           std::make_shared<RationalSignal>(),
                           FeedbackStyle::Aggregate, homogeneous(1, 0.1, 0.5),
                           99, opts);
  const auto records = loop.run({0.5}, 3);
  for (const auto& rec : records) {
    EXPECT_GE(rec.signals[0], 0.0);
    EXPECT_LE(rec.signals[0], 1.0);
    EXPECT_GT(rec.delays[0], 0.5);  // at least the propagation latency
  }
  // At r = 0.5, rho = 0.5: signal should measure about 0.5.
  EXPECT_NEAR(records[0].signals[0], 0.5, 0.07);
}

TEST(ClosedLoop, SilentSourceUsesLatencyFallbackDelay) {
  auto topo = ffc::network::single_bottleneck(1, 1.0, 0.7);
  ClosedLoopOptions opts;
  opts.epoch_duration = 50.0;
  ClosedLoopSimulator loop(topo, SimDiscipline::Fifo,
                           std::make_shared<RationalSignal>(),
                           FeedbackStyle::Aggregate, homogeneous(1, 0.1, 0.5),
                           3, opts);
  const auto records = loop.run({0.0}, 1);
  EXPECT_DOUBLE_EQ(records[0].delays[0], 0.7);
  // And the adjuster has begun opening the rate from zero.
  EXPECT_GT(loop.rates()[0], 0.0);
}

TEST(ClosedLoop, Validation) {
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  EXPECT_THROW(ClosedLoopSimulator(topo, SimDiscipline::Fifo, nullptr,
                                   FeedbackStyle::Aggregate,
                                   homogeneous(2, 0.1, 0.5), 1),
               std::invalid_argument);
  EXPECT_THROW(ClosedLoopSimulator(topo, SimDiscipline::Fifo,
                                   std::make_shared<RationalSignal>(),
                                   FeedbackStyle::Aggregate,
                                   homogeneous(1, 0.1, 0.5), 1),
               std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A non-finite epoch would never end (run_for(inf) loops forever); a NaN
  // warm-up fraction used to pass here and fail only at the first run().
  for (const auto& [epoch, warmup] :
       {std::pair{0.0, 0.3}, std::pair{-1.0, 0.3}, std::pair{inf, 0.3},
        std::pair{nan, 0.3}, std::pair{500.0, -0.1}, std::pair{500.0, 1.0},
        std::pair{500.0, nan}, std::pair{500.0, inf}}) {
    ClosedLoopOptions bad;
    bad.epoch_duration = epoch;
    bad.warmup_fraction = warmup;
    EXPECT_THROW(ClosedLoopSimulator(topo, SimDiscipline::Fifo,
                                     std::make_shared<RationalSignal>(),
                                     FeedbackStyle::Aggregate,
                                     homogeneous(2, 0.1, 0.5), 1, bad),
                 std::invalid_argument)
        << "epoch_duration " << epoch << " warmup_fraction " << warmup;
  }
}

TEST(ClosedLoop, TrajectoryMatchesParentBitwise) {
  // A 3-hop parking lot (one long connection, one cross connection per hop,
  // latency 0.5 per hop), short epochs, pinned epoch by epoch to a reference
  // run of the closed loop bit for bit: the measured queues, the congestion
  // measures, the batch signals, the bottleneck maxima, the delay fallback
  // and the fault-plan draws all have to reproduce it. The third cell loses
  // and duplicates signals and acts on two-epoch-old ones; its last epoch
  // has a silent source on the latency fallback.
  using Entry = std::array<double, 3>;  // rate, signal, delay
  using Epoch = std::array<Entry, 4>;   // per connection
  struct Cell {
    const char* name;
    SimDiscipline discipline;
    FeedbackStyle style;
    std::shared_ptr<const ffc::core::SignalFunction> signal;
    ffc::faults::FaultPlan plan;
    std::vector<Epoch> epochs;
    std::array<double, 4> final_rates;
    std::uint64_t lost, duplicated, delayed;
  };
  ffc::faults::FaultPlan impaired;
  impaired.signal_loss_prob = 0.25;
  impaired.signal_duplicate_prob = 0.25;
  impaired.signal_delay_epochs = 2;
  const Cell cells[] = {
      {"FIFO x aggregate",
       SimDiscipline::Fifo,
       FeedbackStyle::Aggregate,
       std::make_shared<RationalSignal>(),
       {},
       {
           {{
             {0x1.999999999999ap-4, 0x1.517fc2e8557ep-1, 0x1.213ff95a92b78p+3},
             {0x1.999999999999ap-3, 0x1.6769fa4f7081bp-3, 0x1.6a27281844f53p+0},
             {0x1.3333333333333p-2, 0x1.517fc2e8557ep-1, 0x1.1c4d9b9f6b881p+2},
             {0x1p-2, 0x1.9f4535ca3055dp-2, 0x1.fc57a2d50d596p+0},
           }},
           {{
             {0x1.586697462201ap-4, 0x1.0ab18dca7d6efp-1, 0x1.ec5a1668283p+1},
             {0x1.dc0f0091a7f31p-3, 0x1.0c7b89a37d74p-2, 0x1.a37da92ddcee5p+0},
             {0x1.22e6729e554d3p-2, 0x1.0ab18dca7d6efp-1, 0x1.848be42ea157ap+1},
             {0x1.09ac476bc7f77p-2, 0x1.b3086ec08b8a6p-3, 0x1.8e91b8ab87a76p+0},
           }},
           {{
             {0x1.4fd88c3dbda8ep-4, 0x1.7a4572e71ad43p-2, 0x1.5367c6b9e3d15p+2},
             {0x1.06618c1ee1078p-2, 0x1.235b3f259ac1fp-2, 0x1.ceacfb5abc277p+0},
             {0x1.20c2efdc3c37p-2, 0x1.7a4572e71ad43p-2, 0x1.f7d24181eef4ap+0},
             {0x1.271f0eaef4308p-2, 0x1.26039f63bf3cbp-2, 0x1.ac5a3426e2287p+0},
           }},
       },
       {0x1.85565e47b2edap-4, 0x1.1c7205ce518dbp-2,
        0x1.2e22645eb9883p-2, 0x1.3ceb7ebe9444p-2},
       0, 0, 0},
      {"FairShare x individual",
       SimDiscipline::FairShare,
       FeedbackStyle::Individual,
       std::make_shared<ffc::core::QuadraticSignal>(),
       {},
       {
           {{
             {0x1.999999999999ap-4, 0x1.e2c6a2194bd45p-5, 0x1.1b390d735bb83p+2},
             {0x1.999999999999ap-3, 0x1.b5a0ae9f3d784p-7, 0x1.6a27281844f53p+0},
             {0x1.3333333333333p-2, 0x1.715a1f65dab03p-3, 0x1.28d52dd1330e9p+1},
             {0x1p-2, 0x1.08d4af1ef3c0cp-3, 0x1.020b53f425886p+1},
           }},
           {{
             {0x1.27216f25c4812p-3, 0x1.20d85751ce7edp-3, 0x1.5935021a24a66p+2},
             {0x1.fd43cbb5679dbp-3, 0x1.29f3c8b216b97p-3, 0x1.bba82c9661a37p+0},
             {0x1.53eeb1a14eaa6p-2, 0x1.2a363473284a5p-2, 0x1.765974a72876ep+1},
             {0x1.25f55da4da366p-2, 0x1.0e400ab46ac9ap-3, 0x1.851200b07748p+0},
           }},
           {{
             {0x1.70a5666a630e1p-3, 0x1.75456c7dd7817p-5, 0x1.76dbfcaf8a426p+2},
             {0x1.22ef4f04ff78cp-2, 0x1.1213f7e6da41p-4, 0x1.9c911526b7d72p+0},
             {0x1.694fac62976fcp-2, 0x1.d214ec4649f35p-3, 0x1.73ea7b245271ap+1},
             {0x1.4ba55d1bd4df8p-2, 0x1.12a75a534da56p-3, 0x1.f9441ea9ff474p+0},
           }},
       },
       {0x1.cdb6dd4da4114p-3, 0x1.4f4868d26d372p-2,
        0x1.853506f8ad56dp-2, 0x1.711cfefe10fdap-2},
       0, 0, 0},
      {"impaired FIFO x individual",
       SimDiscipline::Fifo,
       FeedbackStyle::Individual,
       std::make_shared<ffc::core::ExponentialSignal>(1.5),
       impaired,
       {
           {{
             {0x1.999999999999ap-4, 0x1.c40936ad663f2p-1, 0x1.213ff95a92b78p+3},
             {0x1.999999999999ap-3, 0x1.6c843b7321f4p-3, 0x1.6a27281844f53p+0},
             {0x1.3333333333333p-2, 0x1.e3dc169aea498p-1, 0x1.1c4d9b9f6b881p+2},
             {0x1p-2, 0x1.47fb3b5643a24p-1, 0x1.fc57a2d50d596p+0},
           }},
           {{
             {0x1.999999999999ap-4, 0x1.ecefedac4ca96p-2, 0x1.a3499a77fe94ep+2},
             {0x1.db8c60747c9adp-3, 0x1.053141e616d7bp-1, 0x1.b3fc5f91deda2p+0},
             {0x1.05a0c8476abe1p-2, 0x1.a33534306362dp-1, 0x1.7cf83441fc65fp+1},
             {0x1.e3351b7718258p-3, 0x1.747388ba9f73cp-2, 0x1.4aa829233fb67p+0},
           }},
           {{
             {0x1.f98adbb75c67dp-5, 0x1.8c9a2334869a6p-2, 0x1.2c38a8b1f1265p+2},
             {0x1.db8c60747c9adp-3, 0x1.5b921056a9ec3p-2, 0x1.5fda2251609ddp+0},
             {0x1.b01cbab74491fp-3, 0x1.cb9a67a5a3ad5p-2, 0x1.c258f3979184ep+0},
             {0x1.e3351b7718258p-3, 0x1.95f99cda2d37dp-2, 0x1.c106a9aed241bp+0},
           }},
           {{
             {0x1.7fc508770b38cp-6, 0x1.2f6bc5501f98ap-4, 0x1.04f38c03a7e8p+2},
             {0x1.2fb8f715214eap-2, 0x1.5921ba048403dp-2, 0x1.c51ff42c4ae92p+0},
             {0x1.f3a61e10457b2p-4, 0x1.dbfeb99f4d6dcp-3, 0x1.d18995a066f4p+0},
             {0x1.e3351b7718258p-3, 0x1.11ec8a3da95bbp-1, 0x1.182d24c195cc3p+1},
           }},
           {{
             {0x1.7fc508770b38cp-6, 0x0p+0, 0x1.8p+0},
             {0x1.2da5431f7e92p-2, 0x1.e68dbeb3aa6ebp-2, 0x1.fdfd6be1494cp+0},
             {0x1.71152783292c1p-4, 0x1.3d1a1ce5eafp-3, 0x1.cef38f0e811d6p+0},
             {0x1.0d83726305c86p-2, 0x1.0dc809e0e0703p-2, 0x1.738b5d8f43711p+0},
           }},
       },
       {0x1.1c3401ab19edbp-5, 0x1.3e16a7e3a0c73p-2,
        0x1.860a97a74e19fp-4, 0x1.181daf8067a93p-2},
       5, 4, 16},
  };
  const auto topo = ffc::network::parking_lot(3, 1, 1.0, 0.5);
  ClosedLoopOptions opts;
  opts.epoch_duration = 100.0;
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.name);
    ClosedLoopSimulator loop(topo, cell.discipline, cell.signal, cell.style,
                             homogeneous(4, 0.1, 0.5), 2024, cell.plan, opts);
    const auto records = loop.run({0.1, 0.2, 0.3, 0.25}, cell.epochs.size());
    ASSERT_EQ(records.size(), cell.epochs.size());
    for (std::size_t e = 0; e < records.size(); ++e) {
      for (std::size_t i = 0; i < 4; ++i) {
        SCOPED_TRACE(testing::Message()
                     << "epoch " << e << " connection " << i);
        EXPECT_EQ(records[e].rates[i], cell.epochs[e][i][0]);
        EXPECT_EQ(records[e].signals[i], cell.epochs[e][i][1]);
        EXPECT_EQ(records[e].delays[i], cell.epochs[e][i][2]);
      }
    }
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(loop.rates()[i], cell.final_rates[i]) << "connection " << i;
    }
    EXPECT_EQ(loop.fault_counters().signals_lost, cell.lost);
    EXPECT_EQ(loop.fault_counters().signals_duplicated, cell.duplicated);
    EXPECT_EQ(loop.fault_counters().signals_delayed, cell.delayed);
  }
}

}  // namespace
