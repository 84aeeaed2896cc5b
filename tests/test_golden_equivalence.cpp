// Golden-equivalence suite for the optimized hot paths (docs/PERFORMANCE.md).
//
// The O(N log N) prefix-sum formulations of cumulative_loads and
// individual_congestion, and the workspace (allocation-free) model paths,
// are REPLACEMENTS for straightforward reference code that is kept in-tree
// (cumulative_loads_reference, individual_congestion_reference, and the
// allocating observe/step overloads). These tests pin the replacements to
// the references across randomized inputs, including the regimes where a
// sort-based rewrite is easiest to get wrong: exact rate ties, zero rates,
// and saturated (sigma >= 1) gateways with infinite queues.
//
// Also pins the validation-dedupe contract: every external entry point
// validates its rate vector exactly once (queueing::validation_count), and
// iteration loops validate only on entry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/congestion.hpp"
#include "core/dynamics.hpp"
#include "core/model.hpp"
#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::CongestionWorkspace;
using ffc::core::FeedbackStyle;
using ffc::core::FlowControlModel;
using ffc::core::ModelWorkspace;
using ffc::core::NetworkState;
using ffc::core::individual_congestion;
using ffc::core::individual_congestion_reference;
using ffc::queueing::FairShare;
using ffc::stats::Xoshiro256;
namespace th = ffc::testing;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Equal up to `ulps` representable doubles -- the slack a re-ordered
// floating-point summation is allowed (sequential sums of ~100 terms taken
// in different orders drift by ~10 ulps; 64 keeps a ~1e-14 relative bound
// while staying deterministic). Infinities must match exactly.
void expect_ulp_close(double a, double b, int ulps = 64) {
  if (std::isinf(a) || std::isinf(b)) {
    EXPECT_EQ(a, b);
    return;
  }
  double lo = b, hi = b;
  for (int k = 0; k < ulps; ++k) {
    lo = std::nextafter(lo, -kInf);
    hi = std::nextafter(hi, kInf);
  }
  EXPECT_GE(a, lo) << "a=" << a << " b=" << b;
  EXPECT_LE(a, hi) << "a=" << a << " b=" << b;
}

// Random rate vector with deliberate structure: some exact ties (copied
// entries), some zeros, and a load level that crosses saturation on demand.
std::vector<double> random_rates(Xoshiro256& rng, std::size_t n,
                                 double scale) {
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = scale * rng.uniform01();
  }
  // Copy ~1/4 of the entries from other positions: exact bitwise ties.
  for (std::size_t i = 0; i + 3 < n; i += 4) {
    rates[i] = rates[i + 3];
  }
  if (n > 2) rates[1] = 0.0;  // a silent connection
  return rates;
}

TEST(GoldenEquivalence, CumulativeLoadsMatchesReference) {
  Xoshiro256 rng(20260806);
  for (std::size_t n : {1u, 2u, 3u, 7u, 32u, 129u}) {
    // scale sweeps the gateway from underloaded to far past saturation.
    for (double scale : {0.2, 1.0, 3.0}) {
      const auto rates = random_rates(rng, n, scale / static_cast<double>(n));
      const auto fast = FairShare::cumulative_loads(rates, 0.7);
      const auto slow = FairShare::cumulative_loads_reference(rates, 0.7);
      ASSERT_EQ(fast.size(), slow.size());
      for (std::size_t i = 0; i < n; ++i) expect_ulp_close(fast[i], slow[i]);
    }
  }
}

TEST(GoldenEquivalence, CumulativeLoadsTiedRatesGetIdenticalSigmas) {
  // Bitwise-equal rates must produce bitwise-equal sigmas -- the prefix walk
  // processes a tie group as a unit, so this holds exactly, not just to ulps.
  const std::vector<double> rates{0.3, 0.1, 0.3, 0.3, 0.1};
  const auto sigma = FairShare::cumulative_loads(rates, 1.0);
  EXPECT_EQ(sigma[0], sigma[2]);
  EXPECT_EQ(sigma[0], sigma[3]);
  EXPECT_EQ(sigma[1], sigma[4]);
}

TEST(GoldenEquivalence, IndividualCongestionMatchesReference) {
  Xoshiro256 rng(77);
  for (std::size_t n : {1u, 2u, 5u, 33u, 100u}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> queues(n);
      for (auto& q : queues) q = 5.0 * rng.uniform01();
      if (n > 1) queues[0] = queues[n - 1];  // exact tie
      if (n > 2 && trial % 2 == 1) {
        queues[2] = kInf;  // a saturated connection
        if (n > 4) queues[4] = kInf;
      }
      const auto fast = individual_congestion(queues);
      const auto slow = individual_congestion_reference(queues);
      ASSERT_EQ(fast.size(), slow.size());
      for (std::size_t i = 0; i < n; ++i) expect_ulp_close(fast[i], slow[i]);
    }
  }
}

TEST(GoldenEquivalence, IndividualCongestionAllInfinite) {
  // Every queue diverged: the reference gives +inf everywhere; the prefix
  // walk must not manufacture 0 * inf = NaN.
  const std::vector<double> queues{kInf, kInf, kInf};
  const auto fast = individual_congestion(queues);
  for (double c : fast) EXPECT_EQ(c, kInf);
}

// The workspace observe/step paths promise results identical to the
// allocating wrappers -- bitwise, since they run the same arithmetic.
void expect_state_identical(const ffc::network::Topology& topo,
                            const NetworkState& a, const NetworkState& b) {
  ASSERT_EQ(a.queues.size(), topo.incidence().num_entries());
  EXPECT_EQ(a.queues, b.queues);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.signals, b.signals);
  EXPECT_EQ(a.combined_signals, b.combined_signals);
  EXPECT_EQ(th::bottleneck_gateways(topo, a), th::bottleneck_gateways(topo, b));
  EXPECT_EQ(a.delays, b.delays);
}

TEST(GoldenEquivalence, WorkspaceObserveAndStepMatchAllocatingPath) {
  Xoshiro256 rng(4242);
  for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
    for (bool fair : {false, true}) {
      auto model = th::make_model(
          ffc::network::parking_lot(3, 2),
          fair ? th::fair_share() : th::fifo(), style);
      ModelWorkspace ws;
      const std::size_t n = model.topology().num_connections();
      for (int trial = 0; trial < 6; ++trial) {
        // scale 1.6 pushes some trials past saturation (infinite queues).
        const auto rates =
            random_rates(rng, n, 1.6 / static_cast<double>(n));
        expect_state_identical(model.topology(), model.observe(rates), [&] {
          model.observe(rates, ws);
          return ws.state;
        }());
        const auto legacy = model.step(rates);
        EXPECT_EQ(legacy, model.step(rates, ws));
        EXPECT_EQ(legacy, model.step_unchecked(rates, ws));
      }
    }
  }
}

TEST(GoldenEquivalence, WorkspaceSurvivesModelAndSizeChanges) {
  // One workspace, multiple models of different sizes: buffers must resize
  // per call, not latch the first model's shape.
  ModelWorkspace ws;
  for (std::size_t n : {5u, 2u, 9u}) {
    auto model =
        th::single_gateway_model(n, th::fair_share(),
                                 FeedbackStyle::Individual);
    std::vector<double> rates(n, 0.4 / static_cast<double>(n));
    EXPECT_EQ(model.step(rates), model.step(rates, ws));
  }
}

// --- Validation dedupe (queueing::validation_count test hook) -------------

std::uint64_t validations(const std::function<void()>& fn) {
  ffc::queueing::set_validation_counting(true);
  const std::uint64_t before = ffc::queueing::validation_count();
  fn();
  const std::uint64_t after = ffc::queueing::validation_count();
  ffc::queueing::set_validation_counting(false);
  return after - before;
}

TEST(ValidationCount, ModelEntryPointsValidateExactlyOnce) {
  auto model = th::single_gateway_model(3, th::fifo(),
                                        FeedbackStyle::Aggregate);
  ModelWorkspace ws;
  const std::vector<double> rates{0.1, 0.2, 0.3};
  EXPECT_EQ(validations([&] { model.observe(rates); }), 1u);
  EXPECT_EQ(validations([&] { model.observe(rates, ws); }), 1u);
  EXPECT_EQ(validations([&] { model.step(rates); }), 1u);
  EXPECT_EQ(validations([&] { model.step(rates, ws); }), 1u);
  EXPECT_EQ(validations([&] { model.step_unchecked(rates, ws); }), 0u);
}

TEST(ValidationCount, DisciplineWrappersValidateExactlyOnce) {
  ffc::queueing::FairShare fs;
  const std::vector<double> rates{0.2, 0.1, 0.2};
  EXPECT_EQ(validations([&] { fs.queue_lengths(rates, 1.0); }), 1u);
  EXPECT_EQ(validations([&] { fs.sojourn_times(rates, 1.0); }), 1u);
  EXPECT_EQ(validations([&] { FairShare::cumulative_loads(rates, 1.0); }),
            1u);
}

TEST(ValidationCount, IterationLoopsValidateOnEntryOnly) {
  // The fixed-point solver and the dynamics runner iterate the map hundreds
  // of times; the dedupe contract is that only the FIRST evaluation runs
  // through the validated boundary, everything after uses the unchecked
  // fast path. A regression that re-validates per step shows up here as a
  // count equal to the iteration tally.
  auto model = th::single_gateway_model(3, th::fair_share(),
                                        FeedbackStyle::Individual);
  ffc::core::FixedPointOptions opts;
  opts.max_iterations = 500;
  const std::uint64_t fp = validations([&] {
    const auto result =
        ffc::core::solve_fixed_point(model, {0.1, 0.1, 0.1}, opts);
    EXPECT_GT(result.iterations, 10u);
  });
  EXPECT_EQ(fp, 1u);

  ffc::core::TrajectoryOptions topts;
  topts.transient = 100;
  topts.window = 50;
  const std::uint64_t dyn = validations([&] {
    ffc::core::run_dynamics(model, {0.1, 0.2, 0.3}, topts);
  });
  EXPECT_EQ(dyn, 1u);
}

}  // namespace
