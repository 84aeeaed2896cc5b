// Tests for trajectory iteration and orbit classification on the full model
// (§3.3 dynamics), with the chaotic band confirmed by the scalar map's
// Lyapunov exponent.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/dynamics.hpp"
#include "core/onedmap.hpp"
#include "core/signal.hpp"
#include "helpers.hpp"

namespace {

using ffc::core::FeedbackStyle;
using ffc::core::OrbitKind;
using ffc::core::run_dynamics;
using ffc::core::TrajectoryOptions;
namespace th = ffc::testing;

TEST(Dynamics, ConvergentCaseDetected) {
  auto model = th::single_gateway_model(2, th::fair_share(),
                                        FeedbackStyle::Individual,
                                        /*eta=*/0.2, /*beta=*/0.5);
  const auto result = run_dynamics(model, {0.1, 0.4});
  EXPECT_EQ(result.kind, OrbitKind::Converged);
  EXPECT_EQ(result.period, 1u);
  for (double r : result.final_state) EXPECT_NEAR(r, 0.25, 1e-6);
}

TEST(Dynamics, EnvelopeTightAtFixedPoint) {
  auto model = th::single_gateway_model(2, th::fair_share(),
                                        FeedbackStyle::Individual, 0.2, 0.5);
  const auto result = run_dynamics(model, {0.1, 0.4});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(result.envelope_max[i], result.envelope_min[i], 1e-8);
  }
}

TEST(Dynamics, PeriodTwoDetectedPastStabilityThreshold) {
  // Symmetric aggregate with eta N = 3.0 > 2: period-2 oscillation of the
  // total rate (the slope at the fixed point is 1 - eta N = -2).
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/1.5, /*beta=*/0.5);
  const auto result = run_dynamics(model, {0.1, 0.1});
  EXPECT_EQ(result.kind, OrbitKind::Periodic);
  EXPECT_EQ(result.period, 2u);
}

TEST(Dynamics, RecordTrajectoryKeepsEveryIterate) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate, 0.1, 0.5);
  TrajectoryOptions opts;
  opts.transient = 10;
  opts.window = 5;
  opts.record_trajectory = true;
  const auto result = run_dynamics(model, {0.2}, opts);
  EXPECT_EQ(result.trajectory.size(), 1u + 10u + 4u);
  EXPECT_DOUBLE_EQ(result.trajectory.front()[0], 0.2);
}

TEST(Dynamics, OptionValidation) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate);
  TrajectoryOptions opts;
  opts.window = 0;
  EXPECT_THROW(run_dynamics(model, {0.1}, opts), std::invalid_argument);
}

TEST(Lyapunov, NegativeAtStableFixedPoint) {
  // The §3.3 family below at a small gain: the full model converges and the
  // scalar map's exponent is negative (contracting).
  const std::size_t n = 8;
  const auto signal = std::make_shared<ffc::core::QuadraticSignal>();
  const auto adjuster = std::make_shared<ffc::core::AdditiveTsi>(0.02, 0.5);
  ffc::core::FlowControlModel model(ffc::network::single_bottleneck(n),
                                    th::fifo(), signal,
                                    FeedbackStyle::Aggregate, adjuster);
  const auto orbit = run_dynamics(model, std::vector<double>(n, 0.05));
  EXPECT_EQ(orbit.kind, OrbitKind::Converged);
  const auto map =
      ffc::core::make_symmetric_aggregate_map(n, 1.0, 0.0, signal, adjuster);
  EXPECT_LT(map.lyapunov(0.05, 500, 1000), 0.0);
}

TEST(Lyapunov, PositiveSomewhereInTheChaoticRegime) {
  // Quadratic signal, symmetric aggregate (the paper's §3.3 chaos example):
  // as eta N grows the orbit stops converging, and somewhere past the
  // oscillation threshold the dynamics turn chaotic (positive Lyapunov
  // exponent). The truncation at r = 0 makes the precise chaotic parameter
  // set fractal, so we scan a band and require chaos to appear in it. The
  // symmetric orbit is the scalar map of onedmap.hpp, whose exponent is the
  // one E5 reports; it is read wherever the full model's orbit is irregular.
  const std::size_t n = 8;
  bool found_positive = false;
  bool found_nonconverged = false;
  for (double eta = 0.20; eta <= 0.45; eta += 0.01) {
    const auto signal = std::make_shared<ffc::core::QuadraticSignal>();
    const auto adjuster = std::make_shared<ffc::core::AdditiveTsi>(eta, 0.5);
    ffc::core::FlowControlModel model(ffc::network::single_bottleneck(n),
                                      th::fifo(), signal,
                                      FeedbackStyle::Aggregate, adjuster);
    const auto orbit = run_dynamics(model, std::vector<double>(n, 0.05));
    if (orbit.kind != OrbitKind::Converged) found_nonconverged = true;
    if (orbit.kind == OrbitKind::Irregular) {
      const auto map = ffc::core::make_symmetric_aggregate_map(
          n, 1.0, 0.0, signal, adjuster);
      found_positive = found_positive || map.lyapunov(0.05, 2000, 4000) > 0.01;
    }
  }
  EXPECT_TRUE(found_nonconverged);
  EXPECT_TRUE(found_positive);
}

TEST(Lyapunov, ArgumentValidation) {
  const ffc::core::OneDMap map([](double x) { return 0.5 * x; });
  EXPECT_THROW(map.lyapunov(0.1, 10, 0), std::invalid_argument);
  EXPECT_THROW(map.lyapunov(0.1, 10, 10, 0.0), std::invalid_argument);
}

}  // namespace
