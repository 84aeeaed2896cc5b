// Tests for the asynchronous update dynamics (§2.5 / §5 future work).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/async_dynamics.hpp"
#include "core/dynamics.hpp"
#include "helpers.hpp"
#include "network/builders.hpp"

namespace {

using ffc::core::AsyncOptions;
using ffc::core::FeedbackStyle;
using ffc::core::run_async;
namespace th = ffc::testing;

TEST(AsyncDynamics, StableSyncCaseStaysStable) {
  auto model = th::single_gateway_model(3, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.3, /*beta=*/0.5);
  AsyncOptions opts;
  opts.horizon = 3000.0;
  const auto result = run_async(model, {0.05, 0.05, 0.05}, opts);
  EXPECT_TRUE(result.settled);
  const double total = std::accumulate(result.final_rates.begin(),
                                       result.final_rates.end(), 0.0);
  EXPECT_NEAR(total, 0.5, 1e-3);
}

TEST(AsyncDynamics, InterleavingStabilizesSyncUnstableAggregate) {
  // eta = 0.5 at N = 8 oscillates synchronously (eigenvalue 1 - eta N = -3,
  // see E4); one-at-a-time updates settle.
  auto model = th::single_gateway_model(8, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.5, /*beta=*/0.5);
  const auto sync = ffc::core::run_dynamics(
      model, std::vector<double>(8, 0.05));
  EXPECT_NE(sync.kind, ffc::core::OrbitKind::Converged);

  AsyncOptions opts;
  opts.horizon = 4000.0;
  opts.seed = 99;
  const auto result = run_async(model, std::vector<double>(8, 0.05), opts);
  EXPECT_TRUE(result.settled);
  const double total = std::accumulate(result.final_rates.begin(),
                                       result.final_rates.end(), 0.0);
  EXPECT_NEAR(total, 0.5, 1e-3);
}

TEST(AsyncDynamics, StaleFeedbackDestabilizes) {
  auto model = th::single_gateway_model(8, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.5, /*beta=*/0.5);
  AsyncOptions opts;
  opts.horizon = 4000.0;
  opts.seed = 99;
  opts.feedback_delay_factor = 8.0;
  const auto result = run_async(model, std::vector<double>(8, 0.05), opts);
  EXPECT_FALSE(result.settled);
  EXPECT_GT(result.residual, 0.01);
}

TEST(AsyncDynamics, IndividualFairShareReachesFairPointAsync) {
  auto model = th::single_gateway_model(4, th::fair_share(),
                                        FeedbackStyle::Individual,
                                        /*eta=*/0.3, /*beta=*/0.5);
  AsyncOptions opts;
  opts.horizon = 4000.0;
  opts.feedback_delay_factor = 1.0;  // one-RTT-old signals, like real ACKs
  const auto result = run_async(model, {0.01, 0.05, 0.1, 0.2}, opts);
  EXPECT_TRUE(result.settled);
  for (double r : result.final_rates) EXPECT_NEAR(r, 0.125, 1e-3);
}

TEST(AsyncDynamics, SamplesCoverTheHorizon) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate);
  AsyncOptions opts;
  opts.horizon = 100.0;
  opts.sample_interval = 10.0;
  const auto result = run_async(model, {0.1, 0.1}, opts);
  ASSERT_GE(result.samples.size(), 9u);
  EXPECT_DOUBLE_EQ(result.samples.front().first, 0.0);
  EXPECT_LE(result.samples.back().first, 100.0);
  for (const auto& [t, rates] : result.samples) {
    EXPECT_EQ(rates.size(), 2u);
  }
}

TEST(AsyncDynamics, FixedPeriodPacing) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate,
                                        /*eta=*/0.2, /*beta=*/0.5);
  AsyncOptions opts;
  opts.rtt_paced = false;
  opts.fixed_period = 0.5;
  opts.jitter = 0.0;
  opts.horizon = 200.0;
  const auto result = run_async(model, {0.1, 0.1}, opts);
  // Two sources, one update each 0.5 time units -> ~800 updates.
  EXPECT_NEAR(static_cast<double>(result.updates_performed), 800.0, 10.0);
  EXPECT_TRUE(result.settled);
}

TEST(AsyncDynamics, DeterministicForSeed) {
  auto model = th::single_gateway_model(3, th::fifo(),
                                        FeedbackStyle::Aggregate);
  AsyncOptions opts;
  opts.horizon = 500.0;
  opts.seed = 31;
  const auto a = run_async(model, {0.1, 0.2, 0.05}, opts);
  const auto b = run_async(model, {0.1, 0.2, 0.05}, opts);
  EXPECT_EQ(a.final_rates, b.final_rates);
  EXPECT_EQ(a.updates_performed, b.updates_performed);
}

TEST(AsyncDynamics, OptionValidation) {
  auto model = th::single_gateway_model(1, th::fifo(),
                                        FeedbackStyle::Aggregate);
  EXPECT_THROW(run_async(model, {0.1, 0.2}), std::invalid_argument);
  AsyncOptions bad;
  bad.horizon = 0.0;
  EXPECT_THROW(run_async(model, {0.1}, bad), std::invalid_argument);
  bad = AsyncOptions{};
  bad.jitter = 1.0;
  EXPECT_THROW(run_async(model, {0.1}, bad), std::invalid_argument);
  bad = AsyncOptions{};
  bad.rtt_paced = false;
  bad.fixed_period = 0.0;
  EXPECT_THROW(run_async(model, {0.1}, bad), std::invalid_argument);
  bad = AsyncOptions{};
  bad.feedback_delay_factor = -1.0;
  EXPECT_THROW(run_async(model, {0.1}, bad), std::invalid_argument);
}

}  // namespace
