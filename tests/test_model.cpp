// Tests for FlowControlModel: observation (queues, signals, bottlenecks,
// delays) and the synchronous update step.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/model.hpp"
#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "network/builders.hpp"
#include "queueing/feasibility.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::AdditiveTsi;
using ffc::core::FeedbackStyle;
using ffc::core::FlowControlModel;
using ffc::core::NetworkState;
using ffc::core::RationalSignal;
using ffc::network::Connection;
using ffc::network::Gateway;
using ffc::network::Topology;
using ffc::queueing::g;
using ffc::stats::Xoshiro256;
namespace th = ffc::testing;

TEST(Model, SingleGatewayAggregateSignals) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate);
  const NetworkState state = model.observe({0.2, 0.3});
  // Total queue g(0.5) = 1; aggregate congestion identical for both.
  ASSERT_EQ(state.congestion.size(), 2u);  // one gateway, two entries
  EXPECT_NEAR(state.congestion[0], g(0.5), 1e-12);
  EXPECT_DOUBLE_EQ(state.congestion[0], state.congestion[1]);
  // b = B(g(rho)) = rho for the rational signal.
  EXPECT_NEAR(state.combined_signals[0], 0.5, 1e-12);
  EXPECT_NEAR(state.combined_signals[1], 0.5, 1e-12);
}

TEST(Model, SingleGatewayIndividualSignalsDiffer) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Individual);
  const NetworkState state = model.observe({0.2, 0.4});
  EXPECT_LT(state.combined_signals[0], state.combined_signals[1]);
}

TEST(Model, BottleneckIsArgmaxGateway) {
  // Two gateways in series; the slower one is the bottleneck.
  Topology topo({{1.0, 0.0}, {0.5, 0.0}}, {Connection{{0, 1}}});
  auto model = th::make_model(topo, th::fifo(), FeedbackStyle::Aggregate);
  const NetworkState state = model.observe({0.3});
  const auto bottlenecks = th::bottleneck_gateways(model.topology(), state);
  ASSERT_EQ(bottlenecks[0].size(), 1u);
  EXPECT_EQ(bottlenecks[0][0], 1u);
  // The combined signal is the slow gateway's.
  EXPECT_NEAR(state.combined_signals[0], 0.3 / 0.5, 1e-12);
}

TEST(Model, DelayAddsLatenciesAndSojourns) {
  Topology topo({{1.0, 0.25}, {1.0, 0.75}}, {Connection{{0, 1}}});
  auto model = th::make_model(topo, th::fifo(), FeedbackStyle::Aggregate);
  const NetworkState state = model.observe({0.5});
  // Each M/M/1 at rho=0.5 has sojourn 1/(mu - r) = 2; latencies add 1.0.
  EXPECT_NEAR(state.delays[0], 1.0 + 2.0 + 2.0, 1e-9);
}

TEST(Model, StepAppliesAdjusterAndTruncates) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/10.0, /*beta=*/0.5);
  // At rate 0.9 the signal is 0.9 > beta, f = 10*(0.5-0.9) = -4 -> truncate.
  const auto next = model.step({0.9});
  EXPECT_DOUBLE_EQ(next[0], 0.0);
}

TEST(Model, StepMovesTowardSteadySignal) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.1, /*beta=*/0.5);
  // Below the target utilization the rate must increase; above, decrease.
  EXPECT_GT(model.step({0.2})[0], 0.2);
  EXPECT_LT(model.step({0.8})[0], 0.8);
  EXPECT_NEAR(model.step({0.5})[0], 0.5, 1e-12);
}

TEST(Model, OverloadedGatewaySignalsMaximalCongestion) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate);
  const NetworkState state = model.observe({0.8, 0.8});
  EXPECT_DOUBLE_EQ(state.combined_signals[0], 1.0);
  EXPECT_TRUE(std::isinf(state.delays[0]));
  // The step still works: maximal signal pushes the rate down.
  const auto next = model.step({0.8, 0.8});
  EXPECT_LT(next[0], 0.8);
}

TEST(Model, QueueOfLooksUpPerGatewayQueues) {
  Topology topo({{1.0, 0.0}, {1.0, 0.0}},
                {Connection{{0, 1}}, Connection{{1}}});
  auto model = th::make_model(topo, th::fifo(), FeedbackStyle::Aggregate);
  const NetworkState state = model.observe({0.2, 0.3});
  // Gateway 1 carries both: load 0.5.
  EXPECT_NEAR(model.queue_of(state, 0, 1), 0.2 / 0.5, 1e-12);
  EXPECT_NEAR(model.queue_of(state, 1, 1), 0.3 / 0.5, 1e-12);
  // Gateway 0 carries only connection 0: load 0.2.
  EXPECT_NEAR(model.queue_of(state, 0, 0), 0.2 / 0.8, 1e-12);
  EXPECT_THROW(model.queue_of(state, 1, 0), std::invalid_argument);
}

TEST(Model, HeterogeneousAdjustersApplied) {
  auto topo = ffc::network::single_bottleneck(2);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> adjusters{
      std::make_shared<AdditiveTsi>(0.1, 0.4),
      std::make_shared<AdditiveTsi>(0.1, 0.6)};
  FlowControlModel model(topo, th::fifo(),
                         std::make_shared<RationalSignal>(),
                         FeedbackStyle::Aggregate, adjusters);
  EXPECT_FALSE(model.homogeneous_tsi());
  // At aggregate signal 0.5, the beta=0.4 source backs off, beta=0.6 pushes.
  const auto next = model.step({0.25, 0.25});
  EXPECT_LT(next[0], 0.25);
  EXPECT_GT(next[1], 0.25);
}

TEST(Model, HomogeneousTsiDetection) {
  auto model = th::single_gateway_model(3, th::fifo(),
                                        FeedbackStyle::Aggregate);
  EXPECT_TRUE(model.homogeneous_tsi());
}

TEST(Model, WithTopologyPreservesComponents) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Individual);
  auto scaled = model.with_topology(model.topology().scaled_rates(3.0));
  EXPECT_EQ(scaled.style(), FeedbackStyle::Individual);
  EXPECT_DOUBLE_EQ(scaled.topology().gateway(0).mu, 3.0);
  EXPECT_THROW(
      model.with_topology(ffc::network::single_bottleneck(5)),
      std::invalid_argument);
}

TEST(Model, ConstructionValidation) {
  auto topo = ffc::network::single_bottleneck(2);
  auto adj = std::make_shared<AdditiveTsi>(0.1, 0.5);
  EXPECT_THROW(FlowControlModel(topo, nullptr,
                                std::make_shared<RationalSignal>(),
                                FeedbackStyle::Aggregate, adj),
               std::invalid_argument);
  EXPECT_THROW(FlowControlModel(topo, th::fifo(), nullptr,
                                FeedbackStyle::Aggregate, adj),
               std::invalid_argument);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> too_few{adj};
  EXPECT_THROW(FlowControlModel(topo, th::fifo(),
                                std::make_shared<RationalSignal>(),
                                FeedbackStyle::Aggregate, too_few),
               std::invalid_argument);
}

TEST(Model, RateVectorValidation) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate);
  EXPECT_THROW(model.observe({0.1}), std::invalid_argument);
  EXPECT_THROW(model.observe({-0.1, 0.1}), std::invalid_argument);
  EXPECT_THROW(model.observe({std::nan(""), 0.1}), std::invalid_argument);
}

TEST(Model, IndividualSignalsEqualAggregateWhenRatesEqual) {
  auto agg = th::single_gateway_model(3, th::fifo(),
                                      FeedbackStyle::Aggregate);
  auto ind = th::single_gateway_model(3, th::fifo(),
                                      FeedbackStyle::Individual);
  const std::vector<double> r{0.2, 0.2, 0.2};
  const auto sa = agg.observe(r);
  const auto si = ind.observe(r);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sa.combined_signals[i], si.combined_signals[i], 1e-12);
  }
}

/// One recorded observation: the per-entry vectors in the CSR gateway-major
/// layout, the per-connection ones, and each connection's bottleneck
/// gateways in path order.
struct RecordedObservation {
  std::vector<double> queues, congestion, signals, combined, delays;
  std::vector<std::vector<ffc::network::GatewayId>> bottlenecks;
};

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what,
                      std::size_t k) {
  ASSERT_EQ(got.size(), want.size()) << "case " << k << " " << what;
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e]),
              std::bit_cast<std::uint64_t>(want[e]))
        << "case " << k << " " << what << "[" << e << "]: " << got[e]
        << " vs " << want[e];
  }
}

TEST(Model, ObservationMatchesParentBitwise) {
  // Observations of a parking lot and a seeded random topology under FIFO
  // and Fair Share with both feedback styles, at equal rates (the long
  // connection's bottlenecks tie) and past saturation with one silent
  // source (infinite queues, tied saturated hops, a probed zero-rate
  // sojourn). Recorded (as hex floats) from the model that copied the
  // queues, measures and signals into per-gateway vectors and built a
  // bottleneck list per connection; the arithmetic is the same, so every
  // bit and every argmax set must match.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const RecordedObservation kRecorded[] = {
      // parking lot, FIFO, aggregate, equal rates
      {
       {0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2,
        0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2},
       {0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1,
        0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2},
       {0x1.ap+2, 0x1.1555555555556p+1, 0x1.1555555555556p+1,
        0x1.1555555555556p+1},
       {{0, 1, 2}, {0}, {1}, {2}}},
      // parking lot, FIFO, aggregate, saturated
      {
       {kInf, kInf, 0x1.8p+0, 0x0p+0, 0x1.8000000000001p+1,
        0x1.0000000000001p+0},
       {kInf, kInf, 0x1.8p+0, 0x1.8p+0, 0x1.0000000000001p+2,
        0x1.0000000000001p+2},
       {0x1p+0, 0x1p+0, 0x1.3333333333333p-1, 0x1.3333333333333p-1,
        0x1.999999999999ap-1, 0x1.999999999999ap-1},
       {0x1p+0, 0x1p+0, 0x1.3333333333333p-1, 0x1.999999999999ap-1},
       {kInf, kInf, 0x1.8000000d6bf94p+1, 0x1.6000000000001p+2},
       {{0}, {0}, {1}, {2}}},
      // parking lot, FIFO, individual, equal rates
      {
       {0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2,
        0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2},
       {0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1,
        0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2},
       {0x1.ap+2, 0x1.1555555555556p+1, 0x1.1555555555556p+1,
        0x1.1555555555556p+1},
       {{0, 1, 2}, {0}, {1}, {2}}},
      // parking lot, FIFO, individual, saturated
      {
       {kInf, kInf, 0x1.8p+0, 0x0p+0, 0x1.8000000000001p+1,
        0x1.0000000000001p+0},
       {kInf, kInf, 0x1.8p+0, 0x0p+0, 0x1.0000000000001p+2,
        0x1.0000000000001p+1},
       {0x1p+0, 0x1p+0, 0x1.3333333333333p-1, 0x0p+0, 0x1.999999999999ap-1,
        0x1.5555555555556p-1},
       {0x1p+0, 0x1p+0, 0x0p+0, 0x1.5555555555556p-1},
       {kInf, kInf, 0x1.8000000d6bf94p+1, 0x1.6000000000001p+2},
       {{0}, {0}, {1}, {2}}},
      // parking lot, Fair Share, aggregate, equal rates
      {
       {0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2,
        0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2},
       {0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1,
        0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2},
       {0x1.ap+2, 0x1.1555555555556p+1, 0x1.1555555555556p+1,
        0x1.1555555555556p+1},
       {{0, 1, 2}, {0}, {1}, {2}}},
      // parking lot, Fair Share, aggregate, saturated
      {
       {kInf, kInf, 0x1.7ffffffffffffp+0, 0x0p+0, 0x1.d555555555557p+1,
        0x1.5555555555556p-2},
       {kInf, kInf, 0x1.7ffffffffffffp+0, 0x1.7ffffffffffffp+0,
        0x1.0000000000001p+2, 0x1.0000000000001p+2},
       {0x1p+0, 0x1p+0, 0x1.3333333333332p-1, 0x1.3333333333332p-1,
        0x1.999999999999ap-1, 0x1.999999999999ap-1},
       {0x1p+0, 0x1p+0, 0x1.3333333333332p-1, 0x1.999999999999ap-1},
       {kInf, kInf, 0x1.800000089706p+0, 0x1.1555555555556p+1},
       {{0}, {0}, {1}, {2}}},
      // parking lot, Fair Share, individual, equal rates
      {
       {0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2,
        0x1.5555555555556p-2, 0x1.5555555555556p-2, 0x1.5555555555556p-2},
       {0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1,
        0x1.5555555555556p-1, 0x1.5555555555556p-1, 0x1.5555555555556p-1},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2},
       {0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
        0x1.999999999999ap-2},
       {0x1.ap+2, 0x1.1555555555556p+1, 0x1.1555555555556p+1,
        0x1.1555555555556p+1},
       {{0, 1, 2}, {0}, {1}, {2}}},
      // parking lot, Fair Share, individual, saturated
      {
       {kInf, kInf, 0x1.7ffffffffffffp+0, 0x0p+0, 0x1.d555555555557p+1,
        0x1.5555555555556p-2},
       {kInf, kInf, 0x1.7ffffffffffffp+0, 0x0p+0, 0x1.0000000000001p+2,
        0x1.5555555555556p-1},
       {0x1p+0, 0x1p+0, 0x1.3333333333332p-1, 0x0p+0, 0x1.999999999999ap-1,
        0x1.999999999999ap-2},
       {0x1p+0, 0x1p+0, 0x0p+0, 0x1.999999999999ap-2},
       {kInf, kInf, 0x1.800000089706p+0, 0x1.1555555555556p+1},
       {{0}, {0}, {1}, {2}}},
      // random topology, FIFO, aggregate, equal rates
      {
       {0x1.3e54af4c20901p-4, 0x1.3e54af4c20901p-4, 0x1.3e54af4c20901p-4,
        0x1.3e54af4c20901p-4, 0x1.48eeef353dd1cp-4, 0x1.48eeef353dd1cp-4,
        0x1.c6d7415e8da9fp-4, 0x1.c6d7415e8da9fp-4, 0x1.1cbd128f20c03p-4,
        0x1.1cbd128f20c03p-4, 0x1.1cbd128f20c03p-4, 0x1.1cbd128f20c03p-4,
        0x1.1cbd128f20c03p-4},
       {0x1.3e54af4c20901p-2, 0x1.3e54af4c20901p-2, 0x1.3e54af4c20901p-2,
        0x1.3e54af4c20901p-2, 0x1.48eeef353dd1cp-3, 0x1.48eeef353dd1cp-3,
        0x1.c6d7415e8da9fp-3, 0x1.c6d7415e8da9fp-3, 0x1.63ec5732e8f04p-2,
        0x1.63ec5732e8f04p-2, 0x1.63ec5732e8f04p-2, 0x1.63ec5732e8f04p-2,
        0x1.63ec5732e8f04p-2},
       {0x1.e5adbf4b2b3f6p-3, 0x1.e5adbf4b2b3f6p-3, 0x1.e5adbf4b2b3f6p-3,
        0x1.e5adbf4b2b3f6p-3, 0x1.1b69e85650b43p-3, 0x1.1b69e85650b43p-3,
        0x1.742ec4ecf029p-3, 0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e3p-2,
        0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2,
        0x1.081eba7a4b3e3p-2},
       {0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2,
        0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2},
       {0x1.f514bf40762bp+0, 0x1.edb07bcdbea92p+1, 0x1.367926822671ep+1,
        0x1.5aa1da9c3a89fp+1, 0x1.5aa1da9c3a89fp+1, 0x1.2a961d1e3acfcp+2},
       {{2}, {3}, {3}, {3}, {3}, {3}}},
      // random topology, FIFO, aggregate, saturated
      {
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8cp+0, 0x0p+0, kInf, kInf, kInf,
        0x0p+0, kInf, kInf, kInf},
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8cp+0, 0x1.3d67171f92c8cp+0,
        kInf, kInf, kInf, kInf, kInf, kInf, kInf},
       {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.1b69e85650b44p-1,
        0x1.1b69e85650b44p-1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
        0x1p+0},
       {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0},
       {kInf, kInf, kInf, kInf, kInf, kInf},
       {{2}, {0, 3}, {3}, {3, 0}, {0, 3}, {2, 0, 3}}},
      // random topology, FIFO, individual, equal rates
      {
       {0x1.3e54af4c20901p-4, 0x1.3e54af4c20901p-4, 0x1.3e54af4c20901p-4,
        0x1.3e54af4c20901p-4, 0x1.48eeef353dd1cp-4, 0x1.48eeef353dd1cp-4,
        0x1.c6d7415e8da9fp-4, 0x1.c6d7415e8da9fp-4, 0x1.1cbd128f20c03p-4,
        0x1.1cbd128f20c03p-4, 0x1.1cbd128f20c03p-4, 0x1.1cbd128f20c03p-4,
        0x1.1cbd128f20c03p-4},
       {0x1.3e54af4c20901p-2, 0x1.3e54af4c20901p-2, 0x1.3e54af4c20901p-2,
        0x1.3e54af4c20901p-2, 0x1.48eeef353dd1cp-3, 0x1.48eeef353dd1cp-3,
        0x1.c6d7415e8da9fp-3, 0x1.c6d7415e8da9fp-3, 0x1.63ec5732e8f04p-2,
        0x1.63ec5732e8f04p-2, 0x1.63ec5732e8f04p-2, 0x1.63ec5732e8f04p-2,
        0x1.63ec5732e8f04p-2},
       {0x1.e5adbf4b2b3f6p-3, 0x1.e5adbf4b2b3f6p-3, 0x1.e5adbf4b2b3f6p-3,
        0x1.e5adbf4b2b3f6p-3, 0x1.1b69e85650b43p-3, 0x1.1b69e85650b43p-3,
        0x1.742ec4ecf029p-3, 0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e3p-2,
        0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2,
        0x1.081eba7a4b3e3p-2},
       {0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2,
        0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2, 0x1.081eba7a4b3e3p-2},
       {0x1.f514bf40762bp+0, 0x1.edb07bcdbea92p+1, 0x1.367926822671ep+1,
        0x1.5aa1da9c3a89fp+1, 0x1.5aa1da9c3a89fp+1, 0x1.2a961d1e3acfcp+2},
       {{2}, {3}, {3}, {3}, {3}, {3}}},
      // random topology, FIFO, individual, saturated
      {
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8cp+0, 0x0p+0, kInf, kInf, kInf,
        0x0p+0, kInf, kInf, kInf},
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8cp+0, 0x0p+0, kInf, kInf, kInf,
        0x0p+0, kInf, kInf, kInf},
       {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.1b69e85650b44p-1, 0x0p+0, 0x1p+0,
        0x1p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0},
       {0x1p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0},
       {kInf, kInf, kInf, kInf, kInf, kInf},
       {{2}, {0, 3}, {1, 3}, {3, 0}, {0, 3}, {2, 0, 3}}},
      // random topology, Fair Share, aggregate, equal rates
      {
       {0x1.3e54af4c20902p-4, 0x1.3e54af4c20902p-4, 0x1.3e54af4c20902p-4,
        0x1.3e54af4c20902p-4, 0x1.48eeef353dd1cp-4, 0x1.48eeef353dd1cp-4,
        0x1.c6d7415e8da9fp-4, 0x1.c6d7415e8da9fp-4, 0x1.1cbd128f20c02p-4,
        0x1.1cbd128f20c02p-4, 0x1.1cbd128f20c02p-4, 0x1.1cbd128f20c02p-4,
        0x1.1cbd128f20c02p-4},
       {0x1.3e54af4c20902p-2, 0x1.3e54af4c20902p-2, 0x1.3e54af4c20902p-2,
        0x1.3e54af4c20902p-2, 0x1.48eeef353dd1cp-3, 0x1.48eeef353dd1cp-3,
        0x1.c6d7415e8da9fp-3, 0x1.c6d7415e8da9fp-3, 0x1.63ec5732e8f02p-2,
        0x1.63ec5732e8f02p-2, 0x1.63ec5732e8f02p-2, 0x1.63ec5732e8f02p-2,
        0x1.63ec5732e8f02p-2},
       {0x1.e5adbf4b2b3f8p-3, 0x1.e5adbf4b2b3f8p-3, 0x1.e5adbf4b2b3f8p-3,
        0x1.e5adbf4b2b3f8p-3, 0x1.1b69e85650b43p-3, 0x1.1b69e85650b43p-3,
        0x1.742ec4ecf029p-3, 0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e2p-2,
        0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2,
        0x1.081eba7a4b3e2p-2},
       {0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2,
        0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2},
       {0x1.f514bf40762bp+0, 0x1.edb07bcdbea92p+1, 0x1.367926822671ep+1,
        0x1.5aa1da9c3a89fp+1, 0x1.5aa1da9c3a89fp+1, 0x1.2a961d1e3acfbp+2},
       {{2}, {3}, {3}, {3}, {3}, {3}}},
      // random topology, Fair Share, aggregate, saturated
      {
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8bp+0, 0x0p+0, kInf, kInf, kInf,
        0x0p+0, kInf, kInf, kInf},
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8bp+0, 0x1.3d67171f92c8bp+0,
        kInf, kInf, kInf, kInf, kInf, kInf, kInf},
       {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.1b69e85650b43p-1,
        0x1.1b69e85650b43p-1, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0,
        0x1p+0},
       {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0},
       {kInf, kInf, 0x1.114c2d36d7b06p+1, kInf, kInf, kInf},
       {{2}, {0, 3}, {3}, {3, 0}, {0, 3}, {2, 0, 3}}},
      // random topology, Fair Share, individual, equal rates
      {
       {0x1.3e54af4c20902p-4, 0x1.3e54af4c20902p-4, 0x1.3e54af4c20902p-4,
        0x1.3e54af4c20902p-4, 0x1.48eeef353dd1cp-4, 0x1.48eeef353dd1cp-4,
        0x1.c6d7415e8da9fp-4, 0x1.c6d7415e8da9fp-4, 0x1.1cbd128f20c02p-4,
        0x1.1cbd128f20c02p-4, 0x1.1cbd128f20c02p-4, 0x1.1cbd128f20c02p-4,
        0x1.1cbd128f20c02p-4},
       {0x1.3e54af4c20902p-2, 0x1.3e54af4c20902p-2, 0x1.3e54af4c20902p-2,
        0x1.3e54af4c20902p-2, 0x1.48eeef353dd1cp-3, 0x1.48eeef353dd1cp-3,
        0x1.c6d7415e8da9fp-3, 0x1.c6d7415e8da9fp-3, 0x1.63ec5732e8f02p-2,
        0x1.63ec5732e8f02p-2, 0x1.63ec5732e8f02p-2, 0x1.63ec5732e8f02p-2,
        0x1.63ec5732e8f02p-2},
       {0x1.e5adbf4b2b3f8p-3, 0x1.e5adbf4b2b3f8p-3, 0x1.e5adbf4b2b3f8p-3,
        0x1.e5adbf4b2b3f8p-3, 0x1.1b69e85650b43p-3, 0x1.1b69e85650b43p-3,
        0x1.742ec4ecf029p-3, 0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e2p-2,
        0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2,
        0x1.081eba7a4b3e2p-2},
       {0x1.742ec4ecf029p-3, 0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2,
        0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2, 0x1.081eba7a4b3e2p-2},
       {0x1.f514bf40762bp+0, 0x1.edb07bcdbea92p+1, 0x1.367926822671ep+1,
        0x1.5aa1da9c3a89fp+1, 0x1.5aa1da9c3a89fp+1, 0x1.2a961d1e3acfbp+2},
       {{2}, {3}, {3}, {3}, {3}, {3}}},
      // random topology, Fair Share, individual, saturated
      {
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8bp+0, 0x0p+0, kInf, kInf, kInf,
        0x0p+0, kInf, kInf, kInf},
       {kInf, kInf, kInf, kInf, 0x1.3d67171f92c8bp+0, 0x0p+0, kInf, kInf, kInf,
        0x0p+0, kInf, kInf, kInf},
       {0x1p+0, 0x1p+0, 0x1p+0, 0x1p+0, 0x1.1b69e85650b43p-1, 0x0p+0, 0x1p+0,
        0x1p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0},
       {0x1p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x1p+0},
       {kInf, kInf, 0x1.114c2d36d7b06p+1, kInf, kInf, kInf},
       {{2}, {0, 3}, {1, 3}, {3, 0}, {0, 3}, {2, 0, 3}}},
  };
  Xoshiro256 rng(20261018);
  ffc::network::RandomTopologyParams params;
  params.num_gateways = 4;
  params.num_connections = 6;
  params.max_path_length = 3;
  params.mu_min = 1.0;
  params.mu_max = 2.0;
  const Topology topologies[2] = {
      ffc::network::parking_lot(3, 1, 1.0, 0.5),
      ffc::network::random_topology(rng, params)};
  const std::vector<std::vector<double>> rate_sets[2] = {
      {{0.2, 0.2, 0.2, 0.2}, {0.6, 0.5, 0.0, 0.2}},
      {{0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, {0.9, 0.8, 0.0, 0.5, 0.7, 0.6}}};
  std::size_t k = 0;
  for (std::size_t t = 0; t < 2; ++t) {
    for (const auto& discipline : {th::fifo(), th::fair_share()}) {
      for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
        const auto model = th::make_model(topologies[t], discipline, style);
        for (const auto& rates : rate_sets[t]) {
          ASSERT_LT(k, std::size(kRecorded));
          const RecordedObservation& want = kRecorded[k];
          const NetworkState state = model.observe(rates);
          expect_same_bits(state.queues, want.queues, "queues", k);
          expect_same_bits(state.congestion, want.congestion, "congestion",
                           k);
          expect_same_bits(state.signals, want.signals, "signals", k);
          expect_same_bits(state.combined_signals, want.combined, "combined",
                           k);
          expect_same_bits(state.delays, want.delays, "delays", k);
          EXPECT_EQ(th::bottleneck_gateways(model.topology(), state),
                    want.bottlenecks)
              << "case " << k;
          ++k;
        }
      }
    }
  }
  EXPECT_EQ(k, std::size(kRecorded));
}

}  // namespace
