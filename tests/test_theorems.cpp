// End-to-end verification of the paper's theorems on the analytic model.
// Each test mirrors one claim of §3; the bench/ experiments print the
// corresponding tables.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "core/dynamics.hpp"
#include "core/fairness.hpp"
#include "core/robustness.hpp"
#include "core/stability.hpp"
#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "network/builders.hpp"
#include "spectral/stability.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::AdditiveTsi;
using ffc::core::check_fairness;
using ffc::core::check_robustness;
using ffc::core::fair_steady_state;
using ffc::core::FeedbackStyle;
using ffc::core::FixedPointOptions;
using ffc::core::FlowControlModel;
using ffc::core::is_steady_state;
using ffc::core::RateLimd;
using ffc::core::RationalSignal;
using ffc::core::solve_fixed_point;
using ffc::network::random_topology;
using ffc::network::RandomTopologyParams;
using ffc::stats::Xoshiro256;
namespace th = ffc::testing;

// ---------------------------------------------------------------- Thm 1 --

TEST(Theorem1, TsiSteadyStateScalesWithServerRates) {
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    RandomTopologyParams params;
    params.num_gateways = 4;
    params.num_connections = 6;
    auto topo = random_topology(rng, params);
    auto model = th::make_model(topo, th::fair_share(),
                                FeedbackStyle::Individual, 0.05, 0.5);
    const auto base = fair_steady_state(model);
    for (double c : {0.01, 3.0, 250.0}) {
      auto scaled_model = model.with_topology(topo.scaled_rates(c));
      const auto scaled = fair_steady_state(scaled_model);
      for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_NEAR(scaled[i], c * base[i], 1e-9 * c * (1.0 + base[i]));
      }
      EXPECT_TRUE(is_steady_state(scaled_model, scaled, 1e-7));
    }
  }
}

TEST(Theorem1, TsiSteadyStateIndependentOfLatency) {
  Xoshiro256 rng(7);
  RandomTopologyParams params;
  params.num_gateways = 3;
  params.num_connections = 5;
  auto topo = random_topology(rng, params);
  auto model = th::make_model(topo, th::fifo(), FeedbackStyle::Individual,
                              0.05, 0.5);
  const auto base = solve_fixed_point(model, std::vector<double>(5, 0.01));
  ASSERT_TRUE(base.converged);
  auto stretched = model.with_topology(topo.scaled_latencies(50.0));
  const auto far = solve_fixed_point(stretched, std::vector<double>(5, 0.01));
  ASSERT_TRUE(far.converged);
  for (std::size_t i = 0; i < base.rates.size(); ++i) {
    EXPECT_NEAR(base.rates[i], far.rates[i], 1e-6);
  }
}

TEST(Theorem1, NonTsiAdjusterSteadyStateDoesNotScale) {
  // RateLimd: r* solves (1-rho) eta = beta rho r with b = rho. Scaling mu by
  // c does NOT scale r* linearly.
  auto topo = ffc::network::single_bottleneck(1, 1.0);
  FlowControlModel model(topo, th::fifo(), th::rational_signal(),
                         FeedbackStyle::Aggregate,
                         std::make_shared<RateLimd>(1.0, 1.0));
  FixedPointOptions opts;
  opts.damping = 0.3;
  const auto base = solve_fixed_point(model, {0.1}, opts);
  ASSERT_TRUE(base.converged);
  auto scaled_model = model.with_topology(topo.scaled_rates(100.0));
  const auto scaled = solve_fixed_point(scaled_model, {0.1}, opts);
  ASSERT_TRUE(scaled.converged);
  const double ratio = scaled.rates[0] / base.rates[0];
  EXPECT_GT(std::fabs(ratio - 100.0), 10.0)
      << "non-TSI steady state must not scale linearly";
}

TEST(Theorem1, NonTsiWindowAdjusterIsLatencySensitive) {
  auto topo = ffc::network::single_bottleneck(1, 1.0, 0.1);
  FlowControlModel model(topo, th::fifo(), th::rational_signal(),
                         FeedbackStyle::Aggregate,
                         std::make_shared<ffc::core::WindowLimd>(1.0, 1.0));
  FixedPointOptions opts;
  opts.damping = 0.3;
  const auto near_rates = solve_fixed_point(model, {0.1}, opts);
  auto far_model = model.with_topology(topo.scaled_latencies(100.0));
  const auto far_rates = solve_fixed_point(far_model, {0.1}, opts);
  ASSERT_TRUE(near_rates.converged);
  ASSERT_TRUE(far_rates.converged);
  EXPECT_LT(far_rates.rates[0], 0.8 * near_rates.rates[0]);
}

// ---------------------------------------------------------------- Thm 2 --

TEST(Theorem2, AggregateHasManifoldOfUnfairSteadyStates) {
  const std::size_t n = 4;
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Aggregate, 0.1, 0.5);
  Xoshiro256 rng(9);
  int unfair_count = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> r0(n);
    for (double& x : r0) x = rng.uniform(0.0, 0.2);
    const auto result = solve_fixed_point(model, r0);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(is_steady_state(model, result.rates, 1e-6));
    // Total always lands on rho_ss * mu = 0.5.
    const double total = std::accumulate(result.rates.begin(),
                                         result.rates.end(), 0.0);
    EXPECT_NEAR(total, 0.5, 1e-6);
    if (!check_fairness(model, result.rates, 1e-3).fair) ++unfair_count;
  }
  // Random starts essentially never land on the single fair point.
  EXPECT_GE(unfair_count, 18);
}

TEST(Theorem2, AggregateIsPotentiallyFair) {
  // The water-filling construction is a steady state AND fair -- on every
  // topology we try.
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    RandomTopologyParams params;
    params.num_gateways = 4;
    params.num_connections = 7;
    auto topo = random_topology(rng, params);
    auto model = th::make_model(topo, th::fifo(), FeedbackStyle::Aggregate,
                                0.05, 0.5);
    const auto fair = fair_steady_state(model);
    EXPECT_TRUE(is_steady_state(model, fair, 1e-6));
    EXPECT_TRUE(check_fairness(model, fair).fair);
  }
}

// ---------------------------------------------------------------- Thm 3 --

TEST(Theorem3, IndividualFeedbackSteadyStatesAreFair) {
  Xoshiro256 rng(123);
  for (auto disc : {th::fifo(), th::fair_share()}) {
    for (int trial = 0; trial < 5; ++trial) {
      RandomTopologyParams params;
      params.num_gateways = 3;
      params.num_connections = 6;
      auto topo = random_topology(rng, params);
      auto model = th::make_model(topo, disc, FeedbackStyle::Individual,
                                  0.05, 0.5);
      std::vector<double> r0(6);
      for (double& x : r0) x = rng.uniform(0.001, 0.05);
      FixedPointOptions opts;
      opts.damping = 0.5;
      opts.max_iterations = 60000;
      const auto result = solve_fixed_point(model, r0, opts);
      if (!result.converged) continue;  // stability is a separate question
      const auto report = check_fairness(model, result.rates, 1e-4);
      EXPECT_TRUE(report.fair)
          << disc->name() << ": unfair steady state found";
    }
  }
}

TEST(Corollary, IndividualSteadyStateUniqueAndDisciplineIndependent) {
  auto topo = ffc::network::parking_lot(3, 1, 1.0);
  auto fifo_model = th::make_model(topo, th::fifo(),
                                   FeedbackStyle::Individual, 0.05, 0.5);
  auto fs_model = th::make_model(topo, th::fair_share(),
                                 FeedbackStyle::Individual, 0.05, 0.5);
  Xoshiro256 rng(31);
  const auto fair = fair_steady_state(fifo_model);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> r0(topo.num_connections());
    for (double& x : r0) x = rng.uniform(0.001, 0.3);
    for (auto* model : {&fifo_model, &fs_model}) {
      FixedPointOptions opts;
      opts.damping = 0.5;
      opts.max_iterations = 60000;
      const auto result = solve_fixed_point(*model, r0, opts);
      ASSERT_TRUE(result.converged);
      for (std::size_t i = 0; i < fair.size(); ++i) {
        EXPECT_NEAR(result.rates[i], fair[i], 1e-5)
            << "different steady state from start " << trial;
      }
    }
  }
}

// ---------------------------------------------------------------- Thm 4 --

TEST(Theorem4, FairShareUnilateralImpliesSystemicOnRandomNetworks) {
  Xoshiro256 rng(555);
  for (int trial = 0; trial < 8; ++trial) {
    RandomTopologyParams params;
    params.num_gateways = 3;
    params.num_connections = 5;
    auto topo = random_topology(rng, params);
    const double eta = rng.uniform(0.05, 0.6);
    auto model = th::make_model(topo, th::fair_share(),
                                FeedbackStyle::Individual, eta, 0.5);
    FixedPointOptions opts;
    opts.damping = 0.3;
    opts.max_iterations = 60000;
    const auto ss = solve_fixed_point(model, fair_steady_state(model), opts);
    ASSERT_TRUE(ss.converged);
    // Fair steady states tie rates at shared bottlenecks (MAX/MIN kinks);
    // unilateral stability must check BOTH one-sided branch multipliers,
    // and systemic stability is verified dynamically (see E6).
    const auto uni = ffc::core::unilateral_stability(model, ss.rates);
    if (uni.stable) {
      // Small kick only: Theorem 4 is about LINEAR stability; a large kick
      // can leave the nonlinear basin (see E6's notes).
      std::vector<double> r0 = ss.rates;
      for (std::size_t i = 0; i < r0.size(); ++i) {
        r0[i] = std::max(0.0, r0[i] * (1.0 + (i % 2 ? 0.003 : -0.003)));
      }
      const auto orbit = ffc::core::run_dynamics(model, r0);
      ASSERT_EQ(orbit.kind, ffc::core::OrbitKind::Converged)
          << "Theorem 4 violated: unilateral but dynamics diverge, eta="
          << eta;
      for (std::size_t i = 0; i < r0.size(); ++i) {
        EXPECT_NEAR(orbit.final_state[i], ss.rates[i], 1e-5);
      }
    }
  }
}

TEST(Theorem4Contrast, AggregateUnilateralDoesNotImplySystemic) {
  // The §3.3 counterexample at model level: eta in (2/N, 2) is unilaterally
  // stable but systemically unstable, and the dynamics indeed fail to
  // converge to the fair point.
  const std::size_t n = 6;
  const double eta = 1.0;  // 2/N = 0.33 < 1 < 2
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Aggregate, eta, 0.5);
  const std::vector<double> fair(n, 0.5 / n);
  ffc::spectral::SpectralOptions dense;
  dense.method = ffc::spectral::SpectralOptions::Method::Dense;
  const auto report = ffc::spectral::spectral_stability(model, fair, dense);
  EXPECT_TRUE(report.unilaterally_stable);
  EXPECT_FALSE(report.stable_modulo_manifold);
  // Perturb off the fair point: the iteration does not return to it.
  std::vector<double> r0 = fair;
  r0[0] += 0.01;
  const auto orbit = ffc::core::run_dynamics(model, r0);
  EXPECT_NE(orbit.kind, ffc::core::OrbitKind::Converged);
}

TEST(Section33, FifoIndividualUnilateralDoesNotImplySystemic) {
  // The paper: "One can give similar examples showing that for individual
  // feedback flow control with FIFO service, unilaterally stable systems
  // need not be stable." Concrete instance: eta = 0.4, N = 8 -- both
  // one-sided unilateral multipliers are inside the unit circle (0.60 up,
  // -0.80 down) yet a tiny perturbation ends in a period-2 oscillation.
  const std::size_t n = 8;
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Individual,
                                        /*eta=*/0.4, /*beta=*/0.5);
  const std::vector<double> ss(n, 0.5 / static_cast<double>(n));
  ASSERT_TRUE(is_steady_state(model, ss));
  const auto uni = ffc::core::unilateral_stability(model, ss);
  EXPECT_TRUE(uni.stable);
  std::vector<double> r0 = ss;
  for (std::size_t i = 0; i < n; ++i) {
    r0[i] *= 1.0 + (i % 2 ? 0.002 : -0.002);
  }
  const auto orbit = ffc::core::run_dynamics(model, r0);
  EXPECT_EQ(orbit.kind, ffc::core::OrbitKind::Periodic);
  EXPECT_EQ(orbit.period, 2u);
}

// ---------------------------------------------------------------- Thm 5 --

TEST(Theorem5, FairShareIndividualIsRobustUnderHeterogeneity) {
  // Two populations with different target signals share a gateway; with
  // Fair Share service everyone still gets at least the reservation floor.
  const std::size_t n = 4;
  auto topo = ffc::network::single_bottleneck(n, 1.0);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> mixed;
  for (std::size_t i = 0; i < n; ++i) {
    mixed.push_back(std::make_shared<AdditiveTsi>(
        0.1, i < 2 ? 0.3 : 0.7));  // timid vs greedy
  }
  FlowControlModel model(topo, th::fair_share(), th::rational_signal(),
                         FeedbackStyle::Individual, mixed);
  FixedPointOptions opts;
  opts.damping = 0.4;
  opts.max_iterations = 60000;
  const auto result = solve_fixed_point(
      model, std::vector<double>(n, 0.01), opts);
  ASSERT_TRUE(result.converged);
  const auto robust = check_robustness(model, result.rates, 1e-3);
  EXPECT_TRUE(robust.robust)
      << "shortfall[0] = " << robust.shortfall[0]
      << " floor[0] = " << robust.floor[0];
  // Timid connections actually do better than their reservation floor.
  EXPECT_GT(result.rates[0], 0.0);
}

TEST(Theorem5, FifoIndividualViolatesRobustness) {
  const std::size_t n = 4;
  auto topo = ffc::network::single_bottleneck(n, 1.0);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> mixed;
  for (std::size_t i = 0; i < n; ++i) {
    mixed.push_back(std::make_shared<AdditiveTsi>(0.1, i < 2 ? 0.3 : 0.7));
  }
  FlowControlModel model(topo, th::fifo(), th::rational_signal(),
                         FeedbackStyle::Individual, mixed);
  FixedPointOptions opts;
  opts.damping = 0.4;
  opts.max_iterations = 60000;
  const auto result = solve_fixed_point(
      model, std::vector<double>(n, 0.01), opts);
  ASSERT_TRUE(result.converged);
  const auto robust = check_robustness(model, result.rates, 1e-3);
  EXPECT_FALSE(robust.robust)
      << "FIFO should fail the reservation floor for the timid connections";
  // But unlike aggregate feedback, nobody starves completely.
  for (double r : result.rates) EXPECT_GT(r, 0.01);
}

TEST(Section34, AggregateHeterogeneityStarvesTimidConnection) {
  // The paper's example: with aggregate feedback, the connection with the
  // smaller b_ss is driven to zero.
  auto topo = ffc::network::single_bottleneck(2, 1.0);
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> mixed{
      std::make_shared<AdditiveTsi>(0.1, 0.4),
      std::make_shared<AdditiveTsi>(0.1, 0.6)};
  FlowControlModel model(topo, th::fifo(), th::rational_signal(),
                         FeedbackStyle::Aggregate, mixed);
  const auto orbit = ffc::core::run_dynamics(model, {0.2, 0.2});
  EXPECT_EQ(orbit.kind, ffc::core::OrbitKind::Converged);
  EXPECT_NEAR(orbit.final_state[0], 0.0, 1e-9);   // starved
  EXPECT_NEAR(orbit.final_state[1], 0.6, 1e-6);   // rho_ss of the greedy one
}

}  // namespace
