// The paper's theorems quantify over ALL conforming signalling functions B
// and TSI adjusters f -- not just the running examples. These parameterized
// sweeps check the central results across the whole implemented family.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <tuple>

#include "core/ffc.hpp"
#include "helpers.hpp"

namespace {

using ffc::core::AdditiveTsi;
using ffc::core::FeedbackStyle;
using ffc::core::FixedPointOptions;
using ffc::core::FlowControlModel;
using ffc::core::MultiplicativeTsi;
using ffc::core::RateAdjustment;
using ffc::core::SignalFunction;
namespace th = ffc::testing;

using SignalPtr = std::shared_ptr<const SignalFunction>;
using AdjusterFactory =
    std::function<std::shared_ptr<const RateAdjustment>(double beta)>;

struct Combo {
  SignalPtr signal;
  std::shared_ptr<const RateAdjustment> adjuster;
  std::string label;
};

// gtest prints a TEST_P parameter into each test's listed name, and ctest
// registers that name. Print a combination by its label, not its bytes
// (which hold heap addresses), so the registered names are the same in
// every build.
void PrintTo(const Combo& combo, std::ostream* os) { *os << combo.label; }

std::vector<Combo> combos() {
  std::vector<std::pair<SignalPtr, std::string>> signals{
      {std::make_shared<ffc::core::RationalSignal>(), "rational"},
      {std::make_shared<ffc::core::QuadraticSignal>(), "quadratic"},
      {std::make_shared<ffc::core::ExponentialSignal>(0.8), "exponential"},
      {std::make_shared<ffc::core::PowerSignal>(3.0), "power3"},
  };
  std::vector<Combo> out;
  for (const auto& [signal, name] : signals) {
    out.push_back({signal, std::make_shared<AdditiveTsi>(0.08, 0.5),
                   name + "_additive"});
    out.push_back({signal, std::make_shared<MultiplicativeTsi>(0.5, 0.5),
                   name + "_multiplicative"});
  }
  return out;
}

class SignalGenerality : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(AllSignalsAndAdjusters, SignalGenerality,
                         ::testing::ValuesIn(combos()),
                         [](const auto& info) { return info.param.label; });

TEST_P(SignalGenerality, Theorem1SteadyStateScales) {
  const auto& combo = GetParam();
  const auto topo = ffc::network::single_bottleneck(3, 1.0);
  FlowControlModel model(topo, th::fair_share(), combo.signal,
                         FeedbackStyle::Individual, combo.adjuster);
  const auto base = ffc::core::fair_steady_state(model);
  auto scaled_model = model.with_topology(topo.scaled_rates(50.0));
  const auto scaled = ffc::core::fair_steady_state(scaled_model);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(scaled[i], 50.0 * base[i], 1e-8 * (1.0 + 50.0 * base[i]));
  }
  EXPECT_TRUE(ffc::core::is_steady_state(scaled_model, scaled, 1e-7))
      << combo.label;
}

TEST_P(SignalGenerality, Theorem3IndividualFeedbackConvergesFair) {
  const auto& combo = GetParam();
  FlowControlModel model(ffc::network::single_bottleneck(4, 1.0),
                         th::fair_share(), combo.signal,
                         FeedbackStyle::Individual, combo.adjuster);
  FixedPointOptions opts;
  opts.damping = 0.4;
  opts.max_iterations = 100000;
  const auto result =
      ffc::core::solve_fixed_point(model, {0.02, 0.05, 0.1, 0.2}, opts);
  ASSERT_TRUE(result.converged) << combo.label;
  EXPECT_TRUE(ffc::core::check_fairness(model, result.rates, 1e-4).fair)
      << combo.label;
  // Bottleneck utilization equals the signal-specific rho_ss.
  const double rho_ss =
      ffc::core::steady_state_utilization(*combo.signal, 0.5);
  double total = 0.0;
  for (double r : result.rates) total += r;
  EXPECT_NEAR(total, rho_ss, 1e-4) << combo.label;
}

TEST_P(SignalGenerality, Theorem5FairShareRobustUnderHeterogeneity) {
  const auto& combo = GetParam();
  // Mix the parameterized adjuster with a greedier sibling of the same
  // family (larger steady signal).
  std::shared_ptr<const RateAdjustment> greedy;
  if (dynamic_cast<const AdditiveTsi*>(combo.adjuster.get())) {
    greedy = std::make_shared<AdditiveTsi>(0.08, 0.75);
  } else {
    greedy = std::make_shared<MultiplicativeTsi>(0.5, 0.75);
  }
  std::vector<std::shared_ptr<const RateAdjustment>> mixed{
      combo.adjuster, combo.adjuster, greedy, greedy};
  FlowControlModel model(ffc::network::single_bottleneck(4, 1.0),
                         th::fair_share(), combo.signal,
                         FeedbackStyle::Individual, mixed);
  FixedPointOptions opts;
  opts.damping = 0.3;
  opts.max_iterations = 300000;
  const auto result = ffc::core::solve_fixed_point(
      model, std::vector<double>(4, 0.02), opts);
  ASSERT_TRUE(result.converged) << combo.label;
  EXPECT_TRUE(ffc::core::check_robustness(model, result.rates, 5e-3).robust)
      << combo.label;
}

TEST_P(SignalGenerality, AggregateManifoldStillAppears) {
  // Theorem 2's negative half is signal-independent too: with aggregate
  // feedback and the ADDITIVE adjuster, initial differences survive.
  const auto& combo = GetParam();
  if (!dynamic_cast<const AdditiveTsi*>(combo.adjuster.get())) {
    GTEST_SKIP() << "manifold preservation argument is additive-specific";
  }
  FlowControlModel model(ffc::network::single_bottleneck(2, 1.0),
                         th::fifo(), combo.signal, FeedbackStyle::Aggregate,
                         combo.adjuster);
  const auto result = ffc::core::solve_fixed_point(model, {0.05, 0.15});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.rates[1] - result.rates[0], 0.1, 1e-6) << combo.label;
  EXPECT_FALSE(ffc::core::check_fairness(model, result.rates, 1e-3).fair);
}

}  // namespace
