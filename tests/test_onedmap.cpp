// Tests for the scalar-map machinery behind the §3.3 examples.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/onedmap.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"

namespace {

using ffc::core::AdditiveTsi;
using ffc::core::make_symmetric_aggregate_map;
using ffc::core::OneDMap;
using ffc::core::QuadraticSignal;
using ffc::core::RationalSignal;
using ffc::core::ScalarOrbitKind;

TEST(OneDMapBasics, IterateAndTrajectory) {
  OneDMap half([](double x) { return 0.5 * x; });
  const auto traj = half.trajectory(8.0, 3);
  ASSERT_EQ(traj.size(), 4u);
  EXPECT_DOUBLE_EQ(traj[0], 8.0);
  EXPECT_DOUBLE_EQ(traj[3], 1.0);
  EXPECT_THROW(OneDMap(nullptr), std::invalid_argument);
}

TEST(OneDMapClassify, FixedPoint) {
  OneDMap contraction([](double x) { return 0.5 + 0.3 * (x - 0.5); });
  const auto orbit = contraction.classify(0.9);
  EXPECT_EQ(orbit.kind, ScalarOrbitKind::Converged);
  EXPECT_EQ(orbit.period, 1u);
  EXPECT_NEAR(orbit.final_value, 0.5, 1e-9);
}

TEST(OneDMapClassify, PeriodTwoOfLogistic) {
  // Logistic map at lambda = 3.2: stable 2-cycle.
  OneDMap logistic([](double x) { return 3.2 * x * (1.0 - x); });
  const auto orbit = logistic.classify(0.3);
  EXPECT_EQ(orbit.kind, ScalarOrbitKind::Periodic);
  EXPECT_EQ(orbit.period, 2u);
}

TEST(OneDMapClassify, PeriodFourOfLogistic) {
  OneDMap logistic([](double x) { return 3.5 * x * (1.0 - x); });
  const auto orbit = logistic.classify(0.3);
  EXPECT_EQ(orbit.kind, ScalarOrbitKind::Periodic);
  EXPECT_EQ(orbit.period, 4u);
}

TEST(OneDMapClassify, ChaosOfLogistic) {
  OneDMap logistic([](double x) { return 4.0 * x * (1.0 - x); });
  const auto orbit = logistic.classify(0.3);
  EXPECT_EQ(orbit.kind, ScalarOrbitKind::Irregular);
}

TEST(OneDMapClassify, Divergence) {
  OneDMap doubling([](double x) { return 2.0 * x + 1.0; });
  const auto orbit = doubling.classify(1.0);
  EXPECT_EQ(orbit.kind, ScalarOrbitKind::Diverged);
}

TEST(OneDMapLyapunov, KnownValues) {
  // Logistic at 4: lambda = ln 2. Contraction: ln 0.3.
  OneDMap logistic([](double x) { return 4.0 * x * (1.0 - x); });
  EXPECT_NEAR(logistic.lyapunov(0.3, 1000, 20000), std::log(2.0), 0.05);
  OneDMap contraction([](double x) { return 0.5 + 0.3 * (x - 0.5); });
  EXPECT_NEAR(contraction.lyapunov(0.9, 100, 2000), std::log(0.3), 0.05);
}

TEST(SymmetricAggregateMap, FixedPointAtTargetUtilization) {
  // Rational signal: b = rho, f = eta(beta - rho); fixed point at
  // x = beta * mu / N.
  const auto map = make_symmetric_aggregate_map(
      4, 2.0, 0.0, std::make_shared<RationalSignal>(),
      std::make_shared<AdditiveTsi>(0.05, 0.5));
  const auto orbit = map.classify(0.01);
  EXPECT_EQ(orbit.kind, ScalarOrbitKind::Converged);
  EXPECT_NEAR(orbit.final_value, 0.5 * 2.0 / 4.0, 1e-6);
}

TEST(SymmetricAggregateMap, MatchesPaperReducedRecursion) {
  // Quadratic signal at mu = 1: x' = x + eta (beta - (N x)^2) while the
  // gateway is underloaded -- the paper's r_tot recursion divided by N.
  const std::size_t n = 3;
  const double eta = 0.07, beta = 0.36;
  const auto map = make_symmetric_aggregate_map(
      n, 1.0, 0.0, std::make_shared<QuadraticSignal>(),
      std::make_shared<AdditiveTsi>(eta, beta));
  for (double x : {0.02, 0.1, 0.3}) {
    const double rho = n * x;
    const double expected = x + eta * (beta - rho * rho);
    EXPECT_NEAR(map(x), std::max(0.0, expected), 1e-12);
  }
}

TEST(SymmetricAggregateMap, SaturatesSignalAtOverload) {
  const auto map = make_symmetric_aggregate_map(
      2, 1.0, 0.0, std::make_shared<RationalSignal>(),
      std::make_shared<AdditiveTsi>(0.5, 0.4));
  // rho = 2 * 0.8 = 1.6 >= 1: b = 1, f = 0.5 * (0.4 - 1) = -0.3.
  EXPECT_NEAR(map(0.8), 0.5, 1e-12);
}

TEST(SymmetricAggregateMap, Validation) {
  auto signal = std::make_shared<RationalSignal>();
  auto adj = std::make_shared<AdditiveTsi>(0.1, 0.5);
  EXPECT_THROW(make_symmetric_aggregate_map(0, 1.0, 0.0, signal, adj),
               std::invalid_argument);
  EXPECT_THROW(make_symmetric_aggregate_map(2, 0.0, 0.0, signal, adj),
               std::invalid_argument);
  EXPECT_THROW(make_symmetric_aggregate_map(2, 1.0, -1.0, signal, adj),
               std::invalid_argument);
  EXPECT_THROW(make_symmetric_aggregate_map(2, 1.0, 0.0, nullptr, adj),
               std::invalid_argument);
}

}  // namespace
