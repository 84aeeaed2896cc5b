// Tests for steady-state machinery: rho_ss, the Theorem-2 water-filling
// construction, the fixed-point solver, and steady-state verification.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "network/builders.hpp"

namespace {

using ffc::core::fair_steady_state;
using ffc::core::FeedbackStyle;
using ffc::core::FixedPointOptions;
using ffc::core::is_steady_state;
using ffc::core::RationalSignal;
using ffc::core::solve_fixed_point;
using ffc::core::steady_state_utilization;
using ffc::network::Connection;
using ffc::network::parking_lot;
using ffc::network::single_bottleneck;
using ffc::network::Topology;
namespace th = ffc::testing;

TEST(SteadyUtilization, RationalSignalGivesBeta) {
  // B(g(rho)) = rho, so rho_ss = b_ss.
  RationalSignal signal;
  EXPECT_NEAR(steady_state_utilization(signal, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(steady_state_utilization(signal, 0.9), 0.9, 1e-12);
  EXPECT_THROW(steady_state_utilization(signal, 0.0), std::invalid_argument);
  EXPECT_THROW(steady_state_utilization(signal, 1.0), std::invalid_argument);
}

TEST(FairConstruction, SingleGatewayEvenSplit) {
  const auto topo = single_bottleneck(4, 2.0);
  const auto r = fair_steady_state(topo, 0.5);
  for (double ri : r) EXPECT_NEAR(ri, 0.5 * 2.0 / 4.0, 1e-12);
}

TEST(FairConstruction, ParkingLotLongConnectionGetsBottleneckShare) {
  // 2 hops, 1 cross connection each, all mu equal: every gateway has 2
  // connections, so everyone gets rho_ss * mu / 2.
  const auto topo = parking_lot(2, 1, 1.0);
  const auto r = fair_steady_state(topo, 0.6);
  for (double ri : r) EXPECT_NEAR(ri, 0.3, 1e-12);
}

TEST(FairConstruction, SlowGatewayConstrainsThenOthersFillUp) {
  // Gateway 0 fast (mu=2), gateway 1 slow (mu=0.5). Connection 0 crosses
  // both; connection 1 only the fast one.
  Topology topo({{2.0, 0.0}, {0.5, 0.0}},
                {Connection{{0, 1}}, Connection{{0}}});
  const double rho = 0.5;
  const auto r = fair_steady_state(topo, rho);
  // Slow gateway: 1 connection, share = rho * 0.5 = 0.25.
  EXPECT_NEAR(r[0], 0.25, 1e-12);
  // Fast gateway: remaining capacity (2 - 0.25/0.5) = 1.5 for 1 connection.
  EXPECT_NEAR(r[1], rho * 1.5, 1e-12);
  // The long connection gets less -- the max-min signature.
  EXPECT_LT(r[0], r[1]);
}

TEST(FairConstruction, ConstructionIsASteadyStateOfIndividualFeedback) {
  for (auto disc : {th::fifo(), th::fair_share()}) {
    auto model = th::make_model(parking_lot(3, 2, 1.0), disc,
                                FeedbackStyle::Individual, 0.05, 0.5);
    const auto r = fair_steady_state(model);
    EXPECT_TRUE(is_steady_state(model, r, 1e-7))
        << "discipline " << disc->name();
  }
}

TEST(FairConstruction, TandemSharedPathSplitsLastHopCapacity) {
  // All connections share a 4-hop line whose last hop is the slowest:
  // everyone gets rho_ss * mu_last / N, and earlier hops run below rho_ss.
  const auto topo = ffc::network::tandem(4, 3, /*mu=*/1.0, /*mu_last=*/0.4);
  const auto r = fair_steady_state(topo, 0.5);
  for (double ri : r) EXPECT_NEAR(ri, 0.5 * 0.4 / 3.0, 1e-12);
  // First hop utilization: 3 * (0.5*0.4/3) / 1.0 = 0.2 < rho_ss.
  double rho_first = 0.0;
  for (double ri : r) rho_first += ri / topo.gateway(0).mu;
  EXPECT_LT(rho_first, 0.5);
}

TEST(FairConstruction, RejectsBadRho) {
  const auto topo = single_bottleneck(2);
  EXPECT_THROW(fair_steady_state(topo, 0.0), std::invalid_argument);
  EXPECT_THROW(fair_steady_state(topo, 1.0), std::invalid_argument);
}

TEST(FairConstruction, ModelOverloadRequiresHomogeneousTsi) {
  auto topo = single_bottleneck(2);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> mixed{
      std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.4),
      std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.6)};
  ffc::core::FlowControlModel model(topo, th::fifo(), th::rational_signal(),
                                    FeedbackStyle::Individual, mixed);
  EXPECT_THROW(fair_steady_state(model), std::invalid_argument);
}

TEST(FixedPoint, ConvergesToFairPointForIndividualFeedback) {
  auto model = th::single_gateway_model(3, th::fair_share(),
                                        FeedbackStyle::Individual,
                                        /*eta=*/0.2, /*beta=*/0.5);
  const auto result = solve_fixed_point(model, {0.01, 0.4, 0.9});
  ASSERT_TRUE(result.converged);
  for (double ri : result.rates) EXPECT_NEAR(ri, 0.5 / 3.0, 1e-6);
}

TEST(FixedPoint, AggregatePreservesInitialSpread) {
  // Aggregate feedback: the additive adjuster shifts all rates by the same
  // amount, so differences persist into the (unfair) steady state.
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.2, /*beta=*/0.5);
  const auto result = solve_fixed_point(model, {0.1, 0.3});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.rates[0] + result.rates[1], 0.5, 1e-7);
  EXPECT_NEAR(result.rates[1] - result.rates[0], 0.2, 1e-6);
}

TEST(FixedPoint, DampingStabilizesAnOtherwiseUnstableIteration) {
  // eta = 1.9 with N=4 makes plain aggregate iteration oscillate/diverge
  // (leading eigenvalue 1 - eta N); damping restores convergence to the
  // same fixed point.
  auto model = th::single_gateway_model(4, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/1.9, /*beta=*/0.5);
  FixedPointOptions plain;
  plain.max_iterations = 3000;
  const auto undamped = solve_fixed_point(model, {0.1, 0.1, 0.1, 0.1}, plain);
  EXPECT_FALSE(undamped.converged);

  FixedPointOptions damped;
  damped.damping = 0.1;
  const auto result = solve_fixed_point(model, {0.1, 0.1, 0.1, 0.1}, damped);
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(is_steady_state(model, result.rates, 1e-6));
}

TEST(FixedPoint, OptionValidation) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate);
  FixedPointOptions bad;
  bad.damping = 0.0;
  EXPECT_THROW(solve_fixed_point(model, {0.1}, bad), std::invalid_argument);
  bad.damping = 1.5;
  EXPECT_THROW(solve_fixed_point(model, {0.1}, bad), std::invalid_argument);
  for (double tol : {std::numeric_limits<double>::quiet_NaN(), -1e-10,
                     std::numeric_limits<double>::infinity()}) {
    FixedPointOptions bad_tol;
    bad_tol.tolerance = tol;
    EXPECT_THROW(solve_fixed_point(model, {0.1}, bad_tol),
                 std::invalid_argument)
        << "tolerance " << tol;
  }
}

// The budget is a loop bound, not a size: 0 is rejected (the first step is
// what validates the initial rates), SIZE_MAX simply runs to convergence.
TEST(FixedPoint, IterationBudgetAtZeroAndSizeMax) {
  auto model = th::single_gateway_model(3, th::fair_share(),
                                        FeedbackStyle::Individual,
                                        /*eta=*/0.2, /*beta=*/0.5);
  FixedPointOptions zero;
  zero.max_iterations = 0;
  EXPECT_THROW(solve_fixed_point(model, {0.01, 0.4, 0.9}, zero),
               std::invalid_argument);

  FixedPointOptions unbounded;
  unbounded.max_iterations = std::numeric_limits<std::size_t>::max();
  const auto result = solve_fixed_point(model, {0.01, 0.4, 0.9}, unbounded);
  ASSERT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 1000u);
  for (double ri : result.rates) EXPECT_NEAR(ri, 0.5 / 3.0, 1e-6);

  FixedPointOptions one;
  one.max_iterations = 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solve_fixed_point(model, {0.1, nan, 0.1}, one),
               std::invalid_argument);
}

TEST(IsSteadyState, DetectsFixedAndMovingPoints) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.1, /*beta=*/0.5);
  EXPECT_TRUE(is_steady_state(model, {0.5}));
  EXPECT_FALSE(is_steady_state(model, {0.2}));
}

TEST(IsSteadyState, TruncatedZeroCountsAsSteady) {
  // A connection pinned at 0 by truncation (f < 0 there) is steady in the
  // paper's sense (§3.4's starvation example).
  auto topo = single_bottleneck(2);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> mixed{
      std::make_shared<ffc::core::AdditiveTsi>(0.5, 0.3),
      std::make_shared<ffc::core::AdditiveTsi>(0.5, 0.6)};
  ffc::core::FlowControlModel model(topo, th::fifo(), th::rational_signal(),
                                    FeedbackStyle::Aggregate, mixed);
  // r = {0, 0.6}: signal = 0.6; f_0 = 0.5*(0.3-0.6) < 0 truncated; f_1 = 0.
  EXPECT_TRUE(is_steady_state(model, {0.0, 0.6}));
}

}  // namespace
