// Cross-cutting invariants swept over random topologies, disciplines, and
// feedback styles -- the properties that must hold no matter the design.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "core/ffc.hpp"
#include "helpers.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::FeedbackStyle;
using ffc::core::FixedPointOptions;
using ffc::core::FlowControlModel;
using ffc::network::random_topology;
using ffc::network::RandomTopologyParams;
using ffc::stats::Xoshiro256;
namespace th = ffc::testing;

struct Config {
  std::shared_ptr<const ffc::queueing::ServiceDiscipline> discipline;
  FeedbackStyle style;
};

std::vector<Config> all_configs() {
  return {
      {th::fifo(), FeedbackStyle::Aggregate},
      {th::fifo(), FeedbackStyle::Individual},
      {th::fair_share(), FeedbackStyle::Aggregate},
      {th::fair_share(), FeedbackStyle::Individual},
  };
}

TEST(ModelInvariants, ObservationsAreWellFormed) {
  Xoshiro256 rng(314159);
  for (const auto& config : all_configs()) {
    for (int trial = 0; trial < 10; ++trial) {
      RandomTopologyParams params;
      params.num_gateways = 2 + rng.uniform_index(3);
      params.num_connections = 3 + rng.uniform_index(4);
      const auto topo = random_topology(rng, params);
      auto model = th::make_model(topo, config.discipline, config.style);
      std::vector<double> r(topo.num_connections());
      for (double& x : r) x = rng.uniform(0.0, 0.5);
      const auto state = model.observe(r);
      const auto bottlenecks = th::bottleneck_gateways(topo, state);
      for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_GE(state.combined_signals[i], 0.0);
        EXPECT_LE(state.combined_signals[i], 1.0);
        EXPECT_GE(state.delays[i], topo.path_latency(i) - 1e-12)
            << "delay below pure propagation";
        EXPECT_FALSE(bottlenecks[i].empty());
        // Every reported bottleneck gateway is on the path.
        for (auto a : bottlenecks[i]) {
          const auto path = topo.path(i);
          EXPECT_NE(std::find(path.begin(), path.end(), a), path.end());
        }
      }
      // Queues are nonnegative and work-conserving per gateway.
      const auto& csr = topo.incidence();
      for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
        double rho = 0.0;
        for (auto j : topo.connections_through(a)) {
          rho += r[j] / topo.gateway(a).mu;
        }
        double total = 0.0;
        bool infinite = false;
        for (std::size_t k = 0; k < csr.fan_in(a); ++k) {
          const double q = state.queues[csr.gateway_offset(a) + k];
          EXPECT_GE(q, 0.0);
          infinite = infinite || std::isinf(q);
          total += q;
        }
        if (rho < 1.0) {
          EXPECT_NEAR(total, rho / (1.0 - rho), 1e-6 * (1.0 + total));
        } else {
          EXPECT_TRUE(infinite);
        }
      }
    }
  }
}

TEST(ModelInvariants, ObservationScalesWithNetwork) {
  // Scaling mu and r together leaves every signal, queue, and bottleneck
  // unchanged (the time-scale invariance of the PLANT, before any adjuster
  // enters the picture).
  Xoshiro256 rng(11111);
  for (const auto& config : all_configs()) {
    RandomTopologyParams params;
    params.num_gateways = 3;
    params.num_connections = 5;
    const auto topo = random_topology(rng, params);
    auto model = th::make_model(topo, config.discipline, config.style);
    auto scaled_model = model.with_topology(topo.scaled_rates(37.0));
    std::vector<double> r(5);
    for (double& x : r) x = rng.uniform(0.0, 0.4);
    std::vector<double> r_scaled = r;
    for (double& x : r_scaled) x *= 37.0;
    const auto base = model.observe(r);
    const auto scaled = scaled_model.observe(r_scaled);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_NEAR(base.combined_signals[i], scaled.combined_signals[i],
                  1e-10);
    }
    ASSERT_EQ(base.queues.size(), scaled.queues.size());
    for (std::size_t e = 0; e < base.queues.size(); ++e) {
      EXPECT_NEAR(base.queues[e], scaled.queues[e], 1e-9);
    }
  }
}

TEST(SteadyStateInvariants, BottleneckUtilizationEqualsRhoSs) {
  // At any converged homogeneous-TSI steady state, each connection's
  // bottleneck gateway runs at exactly rho_ss (for individual feedback);
  // no gateway ever exceeds rho_ss.
  Xoshiro256 rng(999);
  for (auto disc : {th::fifo(), th::fair_share()}) {
    for (int trial = 0; trial < 6; ++trial) {
      RandomTopologyParams params;
      params.num_gateways = 2 + rng.uniform_index(3);
      params.num_connections = 3 + rng.uniform_index(4);
      const auto topo = random_topology(rng, params);
      auto model = th::make_model(topo, disc, FeedbackStyle::Individual,
                                  0.05, 0.5);
      FixedPointOptions opts;
      opts.damping = 0.4;
      opts.max_iterations = 120000;
      std::vector<double> r0(topo.num_connections());
      for (double& x : r0) x = rng.uniform(0.001, 0.05);
      const auto result = ffc::core::solve_fixed_point(model, r0, opts);
      if (!result.converged) continue;
      std::vector<double> rho(topo.num_gateways(), 0.0);
      for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
        for (auto j : topo.connections_through(a)) {
          rho[a] += result.rates[j] / topo.gateway(a).mu;
        }
        EXPECT_LT(rho[a], 0.5 + 1e-5) << "gateway above rho_ss";
      }
      const auto bottlenecks =
          th::bottleneck_gateways(topo, model.observe(result.rates));
      for (std::size_t i = 0; i < result.rates.size(); ++i) {
        bool some_bottleneck_at_rho_ss = false;
        for (auto a : bottlenecks[i]) {
          some_bottleneck_at_rho_ss =
              some_bottleneck_at_rho_ss || std::fabs(rho[a] - 0.5) < 1e-4;
        }
        EXPECT_TRUE(some_bottleneck_at_rho_ss)
            << "connection " << i << " has no saturated bottleneck";
      }
    }
  }
}

TEST(SteadyStateInvariants, WaterFillingNeverExceedsCapacityShare) {
  Xoshiro256 rng(123123);
  for (int trial = 0; trial < 10; ++trial) {
    RandomTopologyParams params;
    params.num_gateways = 2 + rng.uniform_index(4);
    params.num_connections = 3 + rng.uniform_index(6);
    const auto topo = random_topology(rng, params);
    const double rho_ss = rng.uniform(0.2, 0.9);
    const auto rates = ffc::core::fair_steady_state(topo, rho_ss);
    for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
      double rho = 0.0;
      for (auto j : topo.connections_through(a)) {
        rho += rates[j] / topo.gateway(a).mu;
      }
      EXPECT_LE(rho, rho_ss + 1e-9);
    }
    // Total throughput is positive and every connection got something.
    for (double r : rates) EXPECT_GT(r, 0.0);
  }
}

}  // namespace
