// Analytic Jacobian-vector product tests: the closed-form operator against
// the finite-difference oracle across disciplines, feedback styles, tied and
// saturated base points; supported()/fallback dispatch; rebase() on both
// operators; smoothness detection (docs/THEORY.md section 8).
//
// Tolerances: the FD oracle carries its own noise floor (~1e-12/h relative
// from the O(N)-term load sums, plus O(h^2) truncation -- docs/SCALING.md),
// so agreement is asserted to 5e-5, comfortably above that floor and far
// below any structural disagreement a wrong derivative would produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stability.hpp"
#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "linalg/sparse_eigen.hpp"
#include "network/builders.hpp"
#include "queueing/processor_sharing.hpp"
#include "spectral/analytic.hpp"
#include "spectral/operator.hpp"
#include "spectral/stability.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::FeedbackStyle;
using ffc::spectral::AnalyticJacobianOperator;
using ffc::spectral::ModelJacobianOperator;
using ffc::spectral::SpectralOptions;
using ffc::spectral::SpectralReport;
using Path = ffc::spectral::SpectralReport::Path;
using ffc::stats::Xoshiro256;
namespace th = ffc::testing;

constexpr double kFdNoiseTol = 5e-5;

/// AdditiveTsi(eta, beta)'s f = eta (beta - b) without its closed-form
/// gradient: the model computes the same F bit for bit, but the iterative
/// path has to run the finite-difference operator.
std::shared_ptr<const ffc::core::RateAdjustment> fd_only_tsi(double eta,
                                                             double beta) {
  return std::make_shared<ffc::core::FunctionAdjustment>(
      [eta, beta](double, double b, double) { return eta * (beta - b); },
      beta, "eta(beta-b) without gradient");
}

/// Applies both operators to `reps` random directions and asserts agreement
/// within `tol` on every component.
void expect_matches_fd(const ffc::core::FlowControlModel& model,
                       const std::vector<double>& rates, double tol,
                       const char* what, int reps = 5,
                       std::uint64_t seed = 20260807) {
  const AnalyticJacobianOperator analytic(model, rates);
  const ModelJacobianOperator fd(model, rates);
  const std::size_t n = rates.size();
  Xoshiro256 rng(seed);
  std::vector<double> x(n), ya(n), yf(n);
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& e : x) e = rng.uniform(-1.0, 1.0);
    analytic.apply(x, ya);
    fd.apply(x, yf);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ya[i], yf[i], tol)
          << what << ": component " << i << " rep " << rep;
    }
  }
}

TEST(AnalyticJacobianOperator, MatchesDenseJacobianAction) {
  // Same setup as the FD operator's dense-action test: the analytic action
  // must land within the dense FD matrix's own discretization error.
  auto model = th::single_gateway_model(12, th::fifo(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(12);
  for (std::size_t i = 0; i < 12; ++i) rates[i] = 0.02 + 0.003 * double(i);
  const ffc::linalg::Matrix df =
      ffc::linalg::materialize(ModelJacobianOperator(model, rates));
  const AnalyticJacobianOperator op(model, rates);

  Xoshiro256 rng(7);
  std::vector<double> x(12), y(12);
  for (int rep = 0; rep < 5; ++rep) {
    for (auto& e : x) e = rng.uniform(-1.0, 1.0);
    op.apply(x, y);
    const auto exact = df.apply(x);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(y[i], exact[i], 2e-5) << "component " << i;
    }
  }
  EXPECT_EQ(op.applications(), 5u);
}

TEST(AnalyticJacobianOperator, AgreesWithFdAcrossDisciplinesAndStyles) {
  // The full discipline x style matrix at a smooth (tie-free) base point.
  for (bool fair : {false, true}) {
    for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
      auto model = th::single_gateway_model(
          24, fair ? th::fair_share() : th::fifo(), style);
      std::vector<double> rates(24);
      for (std::size_t i = 0; i < 24; ++i) {
        rates[i] = (0.75 / 24.0) * (1.0 + 0.4 * double(i) / 24.0);
      }
      const AnalyticJacobianOperator op(model, rates);
      EXPECT_TRUE(op.smooth()) << "fair=" << fair << " style="
                               << (style == FeedbackStyle::Individual);
      expect_matches_fd(model, rates, kFdNoiseTol,
                        fair ? "fair_share" : "fifo");
    }
  }
}

TEST(AnalyticJacobianOperator, AgreesWithFdOnRandomTopologies) {
  Xoshiro256 rng(424242);
  for (int rep = 0; rep < 4; ++rep) {
    ffc::network::RandomTopologyParams params;
    params.num_gateways = 5;
    params.num_connections = 24;
    params.max_path_length = 3;
    auto topo = ffc::network::random_topology(rng, params);
    for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
      auto model = th::make_model(topo, rep % 2 ? th::fair_share() : th::fifo(),
                                  style);
      std::vector<double> rates(topo.num_connections());
      for (auto& r : rates) r = rng.uniform(0.01, 0.08);
      expect_matches_fd(model, rates, kFdNoiseTol, "random topology", 3,
                        1000 + std::uint64_t(rep));
    }
  }
}

TEST(AnalyticJacobianOperator, TiedRatesAtFairSteadyState) {
  // Exact rate ties put every layer on its MIN/MAX kinks; the branch average
  // (D(x) - D(-x)) / 2 must land on the FD oracle's central difference.
  for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
    auto model = th::single_gateway_model(48, th::fair_share(), style);
    const std::vector<double> fair = ffc::core::fair_steady_state(model);
    const AnalyticJacobianOperator op(model, fair);
    EXPECT_FALSE(op.smooth());  // tied rates: two-pass branch average
    expect_matches_fd(model, fair, kFdNoiseTol, "tied fair steady state");
  }
}

TEST(AnalyticJacobianOperator, UnitColumnsMatchFdAtTiedBases) {
  // The dense path materializes DF from the unit directions e_j, and at a
  // tied base e_j alone breaks a rate tie (r_j becomes the largest of its
  // group). Materialized analytic and FD DFs must agree entrywise at the
  // tied points of E4 (aggregate FIFO), E6 (individual Fair Share on random
  // networks) and E18 (the RCP cells). A central difference across a kink
  // is off by O(h), so the FD side runs at 1e-7 of the rate scale (the
  // largest gap measured there is 7e-8; at an absolute 1e-7 step, 1.7e-6).
  const ffc::core::JvpOptions fine{1e-7, 1e-10};
  const auto expect_columns_match = [&](const ffc::core::FlowControlModel& m,
                                        const std::vector<double>& rates,
                                        const std::string& what) {
    const auto analytic =
        ffc::linalg::materialize(AnalyticJacobianOperator(m, rates));
    const auto fd =
        ffc::linalg::materialize(ModelJacobianOperator(m, rates, fine));
    const double diff = ffc::linalg::Matrix::max_abs_diff(analytic, fd);
    EXPECT_LT(diff, 5e-7) << what;
  };
  for (const std::size_t n : {5u, 8u, 16u}) {
    const auto m = th::single_gateway_model(n, th::fifo(),
                                            FeedbackStyle::Aggregate, 0.5, 0.5);
    expect_columns_match(m, std::vector<double>(n, 0.5 / double(n)),
                         "E4 n=" + std::to_string(n));
  }
  Xoshiro256 rng(4040);
  for (int trial = 0; trial < 6; ++trial) {
    ffc::network::RandomTopologyParams params;
    params.num_gateways = 2 + rng.uniform_index(3);
    params.num_connections = 3 + rng.uniform_index(4);
    const auto m = th::make_model(ffc::network::random_topology(rng, params),
                                  th::fair_share(), FeedbackStyle::Individual,
                                  rng.uniform(0.05, 0.8), 0.5);
    expect_columns_match(m, ffc::core::fair_steady_state(m),
                         "E6 trial " + std::to_string(trial));
  }
  for (const auto& [eta, kappa] : {std::pair{4.0, 0.5}, std::pair{8.0, 0.0}}) {
    const ffc::core::FlowControlModel m(
        ffc::network::single_bottleneck(8, 1.0), th::fifo(),
        th::rational_signal(), FeedbackStyle::Individual,
        std::make_shared<ffc::core::RcpAdjustment>(eta, 1.0, kappa, 0.6));
    expect_columns_match(m, ffc::core::fair_steady_state(m),
                         "E18 eta=" + std::to_string(eta));
  }
}

TEST(AnalyticJacobianOperator, SaturatedGateway) {
  // rho_total = 1.92: infinite queues, pinned signals. Every observable's
  // slope is exactly zero, so both operators reduce to the adjuster layer.
  auto model = th::single_gateway_model(16, th::fifo(),
                                        FeedbackStyle::Aggregate);
  std::vector<double> rates(16, 0.12);
  expect_matches_fd(model, rates, 1e-9, "saturated gateway");
}

TEST(AnalyticJacobianOperator, DelayCoupledWindowAdjuster) {
  // WindowLimd consumes the round-trip delay: exercises the quotient-rule
  // delay layer (dd = sum (dQ - W dx_i) / r_i) that TSI models never touch.
  auto model = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(12, 1.0), th::fifo(),
      th::rational_signal(), FeedbackStyle::Aggregate,
      std::make_shared<ffc::core::WindowLimd>(0.05, 0.4));
  std::vector<double> rates(12);
  for (std::size_t i = 0; i < 12; ++i) rates[i] = 0.02 + 0.004 * double(i);
  expect_matches_fd(model, rates, kFdNoiseTol, "window limd");
}

TEST(AnalyticJacobianOperator, RcpAdjusterAgreesWithFd) {
  // PR 9: RcpAdjustment's analytic gradient (rate-mismatch + queue-drain
  // terms) must ride the existing JVP machinery unchanged.
  auto model = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(12, 1.0), th::fair_share(),
      th::rational_signal(), FeedbackStyle::Individual,
      std::make_shared<ffc::core::RcpAdjustment>(0.3, 1.0, 0.5, 0.6));
  EXPECT_TRUE(AnalyticJacobianOperator::supported(model));
  std::vector<double> rates(12);
  for (std::size_t i = 0; i < 12; ++i) rates[i] = 0.02 + 0.003 * double(i);
  expect_matches_fd(model, rates, kFdNoiseTol, "rcp");
}

TEST(AnalyticJacobianOperator, SmoothStepSignalAgreesWithFd) {
  auto model = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(12, 1.0), th::fifo(),
      std::make_shared<ffc::core::SmoothStepSignal>(4.0, 1.0),
      FeedbackStyle::Aggregate,
      std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.5));
  EXPECT_TRUE(AnalyticJacobianOperator::supported(model));
  std::vector<double> rates(12);
  for (std::size_t i = 0; i < 12; ++i) rates[i] = 0.03 + 0.004 * double(i);
  expect_matches_fd(model, rates, kFdNoiseTol, "smoothstep");
}

TEST(AnalyticJacobianOperator, AimdFallsBackToFiniteDifference) {
  // AIMD's threshold branch has no gradient: supported() must refuse, and
  // the iterative dispatcher must quietly take the FD operator instead.
  auto model = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(8, 1.0), th::fifo(),
      th::rational_signal(), FeedbackStyle::Aggregate,
      std::make_shared<ffc::core::AimdAdjustment>(0.01, 0.5, 0.6));
  EXPECT_FALSE(AnalyticJacobianOperator::supported(model));

  ffc::spectral::SpectralOptions opts;
  opts.method = ffc::spectral::SpectralOptions::Method::Iterative;
  const auto report = ffc::spectral::spectral_stability(
      model, std::vector<double>(8, 0.05), opts);
  ASSERT_TRUE(report.converged);
  EXPECT_FALSE(report.analytic_jvp);
  EXPECT_GT(report.model_evaluations, 1u);
}

TEST(AnalyticJacobianOperator, ZeroRateBoundaryIsFinite) {
  // A pinned-at-zero rate forces the FD oracle one-sided (a documented
  // contract exclusion), so only finiteness is asserted here.
  auto model = th::single_gateway_model(6, th::fifo(),
                                        FeedbackStyle::Aggregate);
  std::vector<double> rates(6, 0.05);
  rates[2] = 0.0;
  const AnalyticJacobianOperator op(model, rates);
  std::vector<double> x(6, 1.0), y(6);
  EXPECT_NO_THROW(op.apply(x, y));
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(AnalyticJacobianOperator, SmoothnessDetectionIsPerLayer) {
  // Tied rates are only a kink for layers that sort: FIFO + aggregate is
  // genuinely smooth at a fully tied point (the E16 S2 configuration), while
  // Fair Share (rate sort) and the individual measure (queue sort) are not.
  std::vector<double> tied(8, 0.05);
  const AnalyticJacobianOperator fifo_agg(
      th::single_gateway_model(8, th::fifo(), FeedbackStyle::Aggregate), tied);
  EXPECT_TRUE(fifo_agg.smooth());
  const AnalyticJacobianOperator fair_agg(
      th::single_gateway_model(8, th::fair_share(), FeedbackStyle::Aggregate),
      tied);
  EXPECT_FALSE(fair_agg.smooth());
  const AnalyticJacobianOperator fifo_ind(
      th::single_gateway_model(8, th::fifo(), FeedbackStyle::Individual),
      tied);
  EXPECT_FALSE(fifo_ind.smooth());

  std::vector<double> distinct(8);
  for (std::size_t i = 0; i < 8; ++i) distinct[i] = 0.03 + 0.004 * double(i);
  const AnalyticJacobianOperator fair_distinct(
      th::single_gateway_model(8, th::fair_share(), FeedbackStyle::Individual),
      distinct);
  EXPECT_TRUE(fair_distinct.smooth());
}

TEST(AnalyticJacobianOperator, UnsupportedLayersDetected) {
  // BinarySignal has no derivative at its threshold: supported() must say
  // no, and constructing the operator anyway must throw.
  auto binary = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(8, 1.0), th::fifo(),
      std::make_shared<ffc::core::BinarySignal>(1.0), FeedbackStyle::Aggregate,
      std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.5));
  EXPECT_FALSE(AnalyticJacobianOperator::supported(binary));
  EXPECT_THROW(AnalyticJacobianOperator(binary, std::vector<double>(8, 0.05)),
               std::invalid_argument);

  // FunctionAdjustment is an arbitrary callable: no gradient either.
  auto opaque = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(4, 1.0), th::fifo(),
      th::rational_signal(), FeedbackStyle::Aggregate,
      std::make_shared<ffc::core::FunctionAdjustment>(
          [](double, double b, double) { return 0.1 * (0.5 - b); },
          std::nullopt, "opaque"));
  EXPECT_FALSE(AnalyticJacobianOperator::supported(opaque));

  auto supported = th::single_gateway_model(4, th::fair_share(),
                                            FeedbackStyle::Individual);
  EXPECT_TRUE(AnalyticJacobianOperator::supported(supported));
}

TEST(AnalyticJacobianOperator, RebaseMatchesFreshOperator) {
  auto model = th::single_gateway_model(16, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> first(16), second(16);
  for (std::size_t i = 0; i < 16; ++i) {
    first[i] = 0.02 + 0.002 * double(i);
    second[i] = 0.05 - 0.001 * double(i);
  }
  AnalyticJacobianOperator rebased(model, first);
  rebased.rebase(second);
  const AnalyticJacobianOperator fresh(model, second);

  Xoshiro256 rng(99);
  std::vector<double> x(16), yr(16), yf(16);
  for (int rep = 0; rep < 3; ++rep) {
    for (auto& e : x) e = rng.uniform(-1.0, 1.0);
    rebased.apply(x, yr);
    fresh.apply(x, yf);
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(yr[i], yf[i]) << "component " << i;
    }
  }
}

/// The seeded direction of ApplyMatchesParentBitwise: odd seeds draw from
/// {-1, -0.0, +0.0, 0.5} (equal dx and both signed zeros inside rate tie
/// runs), even seeds are continuous.
std::vector<double> recorded_direction(std::size_t n, std::uint64_t seed) {
  static constexpr double kLevels[] = {-1.0, -0.0, 0.0, 0.5};
  Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& e : x) {
    e = seed % 2 ? kLevels[rng.uniform_index(4)] : rng.uniform(-1.0, 1.0);
  }
  return x;
}

TEST(AnalyticJacobianOperator, ApplyMatchesParentBitwise) {
  // apply() outputs at the fair points of a parking lot and a random
  // topology, recorded (as hex floats) from the operator that fully sorted
  // every gateway in both branch passes, before the cached base rate order,
  // the tie-run re-sorts, the mirrored -x order and the verified congestion
  // candidate. Every permutation is unique, so every bit must match.
  static const std::vector<std::vector<double>> kRecorded = {
      // parking lot, Fair Share, individual: directions 1, 2, 3
      {-0x0p+0, 0x1.999999999999ap-3, -0x1.9999999999996p-3, -0x1p-54,
       -0x1p-54, 0x0p+0, 0x0p+0},
      {-0x1.cc47c3113fecp-4, 0x1.80c4af3d1d09bp-2, -0x1.d6fcc8135f95p-5,
       0x1.787109c79fb4cp-3, 0x1.135922adc2795p-3, -0x1.5d1ba9c03b72p-8,
       0x1.4b5984e1b204cp-2},
      {-0x1.9999999999996p-3, 0x1.999999999999ap-3, 0x1.999999999999ap-3,
       0x1.999999999999ap-3, 0x1.999999999999ap-3, 0x1.3333333333332p-2,
       0x1.999999999999ap-4},
      // parking lot, Fair Share, aggregate: directions 1, 2, 3
      {0x0p+0, 0x1.999999999999ap-2, -0x1.3333333333333p-1,
       0x1.9999999999998p-4, 0x1.9999999999998p-4, 0x0p+0, 0x0p+0},
      {-0x1.355db73bfa0a4p-1, 0x1.aef4490c3294cp-1, -0x1.ee64450ce29bp-3,
       0x1.ddf63a6754dd6p-2, 0x1.5f98598700532p-2, -0x1.dc329d72cb82p-4,
       0x1.697b1cbc863fp-1},
      {-0x1.6666666666666p-1, 0x1.999999999999ap-2, 0x1.999999999999ap-2,
       0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.6666666666666p-1,
       0x1.999999999999ap-3},
      // parking lot, FIFO, individual: directions 1, 2, 3
      {0x0p+0, 0x1.3333333333333p-2, -0x1.9999999999999p-2,
       0x1.9999999999998p-4, 0x1.9999999999998p-4, 0x0p+0, 0x0p+0},
      {-0x1.c7c8e35a9b88ep-3, 0x1.37ab5055608cdp-1, -0x1.3211bb88dd402p-3,
       0x1.d1533d841935fp-2, 0x1.6c3b566a3bfa8p-2, -0x1.16c953d4311e8p-5,
       0x1.3f615e4b6fe0bp-1},
      {-0x1.ffffffffffffep-3, 0x1.3333333333334p-2, 0x1.3333333333333p-2,
       0x1.999999999999ap-2, 0x1.999999999999ap-2, 0x1.4cccccccccccep-1,
       0x1.0000000000001p-2},
      // random topology, Fair Share, individual: directions 1, 2, 3
      {-0x1p-54, 0x0p+0, 0x1.d723b87990158p-3, -0x1.d723b87990158p-4,
       -0x1.d723b8799014p-4, -0x1.22bec26b897bfp-2, -0x1.22bec26b897bfp-2,
       0x1p-53, 0x0p+0},
      {0x1.0ce3133c44b1ap-2, -0x1.8cad0904614ep-6, 0x1.ccb617eba652cp-3,
       -0x1.1a855ce58ba4p-5, -0x1.8fa8121cb264p-8, -0x1.763b71a9670f8p-2,
       0x1.c96986323f03p-3, 0x1.aba58f5a73e9cp-3, 0x1.e220fffd67b2p-6},
      {0x1.9f82204576e7ap-2, 0x1.67e088115db9ep-3, 0x1.67e088115dbap-3,
       0x1.67e088115dbap-3, 0x1.67e088115db9cp-3, 0x1.2457d84d712f8p-1,
       0x1.b41e23a14e39ep-3, 0x1.67e088115db9cp-3, 0x1.67e088115db9cp-3},
      // random topology, Fair Share, aggregate: directions 1, 2, 3
      {-0x1.22bec26b897bep-3, 0x1.999999999999cp-56, -0x1p+0,
       0x1.6ea09eca3b422p-2, 0x1.6ea09eca3b422p-2, -0x1.22bec26b897bfp-2,
       -0x1.22bec26b897bfp-2, 0x1.999999999999cp-56, 0x1.999999999999cp-56},
      {-0x1.62e835d007e01p-1, 0x1.386337b2dddf7p-1, -0x1.e45445391ab82p-2,
       0x1.32431f889a625p-1, 0x1.e6285e30e03a6p-2, -0x1.edc4c7b303764p-2,
       0x1.5c3e1922bbe84p-2, -0x1.9c76ff86c6eeep-2, 0x1.82051a0d329c2p-2},
      {-0x1.81b005ae37621p-1, 0x1.67e088115db9cp-2, 0x1.67e088115db9cp-2,
       0x1.f93fe9472277cp-3, 0x1.f93fe9472277cp-3, 0x1.48afb09ae25fp-1,
       0x1.22bec26b897bfp-3, 0x1.67e088115db9cp-2, 0x1.67e088115db9cp-2},
      // random topology, FIFO, individual: directions 1, 2, 3
      {0x0p+0, 0x0p+0, -0x1.8a3711e19bfbp-2, 0x1.8a3711e19bfbp-3,
       0x1.8a3711e19bfbp-3, -0x1.22bec26b897bfp-2, -0x1.22bec26b897bfp-2,
       0x0p+0, 0x0p+0},
      {-0x1.7eef370791b7cp-3, 0x1.2bfdcf6abad5p-2, -0x1.fbf272868f1dp-4,
       0x1.3d99da685e53ep-2, 0x1.0cf3efa253641p-2, -0x1.b2001cae3542cp-2,
       0x1.20796e1dedb4ep-2, -0x1.8d486fb319f5p-4, 0x1.a0272a0d09178p-3},
      {-0x1.f13aaf5256be8p-4, 0x1.0de8660d064b5p-2, 0x1.0de8660d064b5p-2,
       0x1.0de8660d064b5p-2, 0x1.0de8660d064b4p-2, 0x1.3683c47429c74p-1,
       0x1.6b6e73066bdaep-3, 0x1.0de8660d064b4p-2, 0x1.0de8660d064b4p-2},
  };
  Xoshiro256 topo_rng(20260807);
  ffc::network::RandomTopologyParams params;
  params.num_gateways = 4;
  params.num_connections = 9;
  params.max_path_length = 3;
  params.mu_min = 1.0;
  params.mu_max = 2.0;
  const ffc::network::Topology topologies[2] = {
      ffc::network::parking_lot(3, 2),
      ffc::network::random_topology(topo_rng, params)};
  std::size_t k = 0;
  for (const auto& topo : topologies) {
    for (int config = 0; config < 3; ++config) {
      auto model = th::make_model(
          topo, config == 2 ? th::fifo() : th::fair_share(),
          config == 1 ? FeedbackStyle::Aggregate : FeedbackStyle::Individual,
          0.4, 0.5);
      const std::vector<double> fair = ffc::core::fair_steady_state(model);
      const AnalyticJacobianOperator op(model, fair);
      EXPECT_FALSE(op.smooth());  // tied fair rates: both branch passes
      for (std::uint64_t seed = 1; seed <= 3; ++seed, ++k) {
        std::vector<double> y;
        op.apply(recorded_direction(fair.size(), seed), y);
        ASSERT_EQ(y.size(), kRecorded[k].size()) << "case " << k;
        for (std::size_t i = 0; i < y.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                    std::bit_cast<std::uint64_t>(kRecorded[k][i]))
              << "case " << k << " component " << i << ": " << y[i]
              << " vs " << kRecorded[k][i];
        }
      }
    }
  }
  EXPECT_EQ(k, kRecorded.size());
}

/// The certify cell (Fair Share, individual feedback, rational signal,
/// additive TSI eta = 0.4, beta = 0.5) at tier-1 size, solved to its fixed
/// point the way perfbench's certify workload does: water-filling, then
/// the damped iteration. Index 0 is parking_lot(4, 2000, 2001) (every
/// gateway one tie run of 2001 rates, the long connection tied at all four
/// hops); index 1 a random 40-gateway topology with N = 2000 and capacities
/// scaled to the expected fan-in (662 tie runs of 2 to 132 rates, so both
/// the insertion sort and the radix sort order runs).
struct TiedCell {
  ffc::core::FlowControlModel model;
  std::vector<double> rates;
};

TiedCell tied_cell(int which) {
  ffc::network::Topology topo = ffc::network::parking_lot(4, 2000, 2001.0);
  if (which == 1) {
    Xoshiro256 rng(20260807);
    ffc::network::RandomTopologyParams params;
    params.num_gateways = 40;
    params.num_connections = 2000;
    params.max_path_length = 4;
    const double fan_in = 2000.0 * (1.0 + 4.0) / 2.0 / 40.0;
    params.mu_min = 0.8 * fan_in;
    params.mu_max = 1.2 * fan_in;
    topo = ffc::network::random_topology(rng, params);
  }
  auto model = th::make_model(std::move(topo), th::fair_share(),
                              FeedbackStyle::Individual, 0.4, 0.5);
  std::vector<double> start = ffc::core::fair_steady_state(model);
  std::vector<double> rates =
      ffc::core::solve_fixed_point(model, std::move(start)).rates;
  return {std::move(model), std::move(rates)};
}

/// FNV-1a over the bit patterns of `y`, in order: any changed bit of any
/// component changes the digest.
std::uint64_t bit_digest(const std::vector<double>& y) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : y) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      h = (h ^ (bits & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(AnalyticJacobianOperator, TiedCertifyCellsMatchRecordedBits) {
  // apply() at the two tie-heavy cells above, recorded from the operator
  // that re-derived Fair Share's per-position coefficients, re-tested every
  // slot for the bottleneck max and std::sort-ed every tie run on every
  // pass. Pinned per direction: the digest of all N outputs and three
  // components (first, middle, last) as hex floats.
  struct Pin {
    std::uint64_t digest;
    double first, middle, last;
  };
  static const Pin kRecorded[2][3] = {
      // parking_lot(4, 2000, 2001): directions 1, 2, 3
      {{0xc650fc8d3d63d4b6ULL, 0x1.72e98243b42dap-6, 0x1.b3089f759fd6bp-2,
        0x1.9b086b0e8f2b6p-6},
       {0xe081f39c024fd576ULL, -0x1.444d60f1566acp-1, 0x1.5934d3f69a8f7p-2,
        -0x1.7c983202b0f06p-3},
       {0x8dce4ec1c8cbc2a9ULL, -0x1.8abbdc7c262b5p-1, 0x1.8c4b6e5b8d18cp-6,
        0x1.b34a204a828a9p-2}},
      // random topology, N = 2000: directions 1, 2, 3
      {{0x5ac1bc5cbca9fdc2ULL, 0x1.376bfac27a3bcp-5, 0x1.3e1d1c29d7fap-5,
        0x1.e755f4b7db0fep-2},
       {0xedbc9a23f4b1c33bULL, -0x1.61604084617aep-1, -0x1.c9e2fba49f547p-2,
        0x1.83b86b5c10a18p-2},
       {0xe4559ee7c54a355aULL, -0x1.b12bde205f75bp-1, 0x1.c2f7702d8da24p-2,
        0x1.f525d21374de4p-2}},
  };
  for (int cell = 0; cell < 2; ++cell) {
    const TiedCell c = tied_cell(cell);
    const AnalyticJacobianOperator op(c.model, c.rates);
    ASSERT_FALSE(op.smooth()) << "cell " << cell;
    const std::size_t n = c.rates.size();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<double> y;
      op.apply(recorded_direction(n, seed), y);
      ASSERT_EQ(y.size(), n);
      const Pin& pin = kRecorded[cell][seed - 1];
      const double got[3] = {y[0], y[n / 2], y[n - 1]};
      const double want[3] = {pin.first, pin.middle, pin.last};
      EXPECT_EQ(bit_digest(y), pin.digest)
          << "cell " << cell << " direction " << seed << ": digest 0x"
          << std::hex << bit_digest(y) << std::dec;
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(want[k]))
            << "cell " << cell << " direction " << seed << " component "
            << k << ": " << std::hexfloat << got[k] << " vs " << want[k]
            << std::defaultfloat;
      }
    }
  }
}

TEST(SpectralStability, ApplicationsCountTheOperatorWork) {
  // The iterative path on parking_lot(4, 2000, 2001) at its fixed point:
  // the Theorem-4 cell, whose separated radius the power stage reaches by
  // itself. The count is the eigensolver's own.
  const TiedCell c = tied_cell(0);
  const SpectralReport report =
      ffc::spectral::spectral_stability(c.model, c.rates);
  ASSERT_TRUE(report.converged);
  EXPECT_EQ(report.path, Path::Triangular);
  EXPECT_EQ(report.applications, 52u);
  ffc::linalg::IterativeEigenOptions eig = SpectralOptions{}.iterative;
  eig.real_spectrum = true;
  const auto solve = ffc::linalg::iterative_eigenvalues(
      AnalyticJacobianOperator(c.model, c.rates), 1, eig);
  EXPECT_EQ(solve.method, ffc::linalg::IterativeMethod::Power);
  EXPECT_EQ(report.applications, solve.applications);

  // The dense path materializes DF: one application per connection.
  auto small = th::single_gateway_model(40, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(40);
  for (std::size_t i = 0; i < 40; ++i) {
    rates[i] = (0.8 / 40.0) * (1.0 + 0.2 * double(i) / 40.0);
  }
  SpectralOptions dense_opts;
  dense_opts.method = SpectralOptions::Method::Dense;
  EXPECT_EQ(
      ffc::spectral::spectral_stability(small, rates, dense_opts).applications,
      40u);

  // The exchangeable certificate reads its spectrum off two applications.
  auto symmetric =
      th::single_gateway_model(128, th::fifo(), FeedbackStyle::Aggregate);
  const SpectralReport cert = ffc::spectral::spectral_stability(
      symmetric, std::vector<double>(128, 0.4 / 128.0));
  ASSERT_EQ(cert.path, Path::Exchangeable);
  EXPECT_EQ(cert.applications, 2u);
}

TEST(AnalyticJacobianOperator, RebaseAcrossTieStructuresMatchesFreshBits) {
  // Rebasing must rebuild everything the base point determines: the cached
  // rate order and its tie runs, the Fair Share coefficients, the
  // bottleneck slots and the smoothness flag. The detour base breaks the
  // parking lot's ties differently at every gateway (distinct rates for
  // a third of the connections) and moves the long connection's
  // bottleneck to one hop.
  const TiedCell c = tied_cell(0);
  const std::size_t n = c.rates.size();
  std::vector<double> detour = c.rates;
  for (std::size_t i = 0; i < n; i += 3) {
    detour[i] *= 1.0 - 1e-3 * double(i % 7 + 1);
  }
  AnalyticJacobianOperator rebased(c.model, c.rates);
  const AnalyticJacobianOperator fresh_detour(c.model, detour);
  const AnalyticJacobianOperator fresh(c.model, c.rates);
  const auto expect_same = [&](const AnalyticJacobianOperator& a,
                               const AnalyticJacobianOperator& b,
                               const char* what) {
    EXPECT_EQ(a.smooth(), b.smooth()) << what;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<double> x = recorded_direction(n, seed);
      std::vector<double> ya, yb;
      a.apply(x, ya);
      b.apply(x, yb);
      EXPECT_EQ(bit_digest(ya), bit_digest(yb))
          << what << " direction " << seed;
    }
  };
  rebased.rebase(detour);
  expect_same(rebased, fresh_detour, "rebased to the detour");
  rebased.rebase(c.rates);
  expect_same(rebased, fresh, "rebased back");
}

TEST(AnalyticJacobianOperator, ReusedTieOrderMatchesFreshOperatorBits) {
  // A +x pass keeps each tie run of the previous +x pass's order that is
  // still sorted by (dx, index). The sequence makes that history hold (2x,
  // an order-preserving perturbation), fail (-x, a random direction), and
  // hold in dx but not in index (-x rounded to halves: exact ties and both
  // signed zeros inside runs, each group left in -x's order), then rebases
  // across a change of tie structure. Every apply must match one apply on
  // a fresh operator bit for bit.
  for (int cell = 0; cell < 2; ++cell) {
    const TiedCell c = tied_cell(cell);
    const std::size_t n = c.rates.size();
    const std::vector<double> x = recorded_direction(n, 2);
    std::vector<double> twice(n), nudged(n), negated(n), tied(n);
    for (std::size_t i = 0; i < n; ++i) {
      twice[i] = 2.0 * x[i];
      nudged[i] = 0.75 * x[i] + 0.125;
      negated[i] = -x[i];
      tied[i] = std::round(-2.0 * x[i]) / 2.0;  // round(-0.3) is -0.0
    }
    std::vector<std::size_t> by_x(n);
    std::iota(by_x.begin(), by_x.end(), std::size_t{0});
    std::sort(by_x.begin(), by_x.end(),
              [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
    for (std::size_t k = 1; k < n; ++k) {
      ASSERT_LT(nudged[by_x[k - 1]], nudged[by_x[k]]) << "cell " << cell;
    }
    const auto zeros = [&](bool negative) {
      return std::count_if(tied.begin(), tied.end(), [&](double v) {
        return v == 0.0 && std::signbit(v) == negative;
      });
    };
    ASSERT_GT(zeros(true), 0) << "cell " << cell;
    ASSERT_GT(zeros(false), 0) << "cell " << cell;
    std::vector<double> detour = c.rates;
    for (std::size_t i = 0; i < n; i += 3) {
      detour[i] *= 1.0 - 1e-3 * double(i % 7 + 1);
    }

    AnalyticJacobianOperator op(c.model, c.rates);
    const auto expect_fresh_bits = [&](const std::vector<double>& base,
                                       const std::vector<double>& d,
                                       const char* what) {
      std::vector<double> reused, fresh;
      op.apply(d, reused);
      AnalyticJacobianOperator(c.model, base).apply(d, fresh);
      ASSERT_EQ(reused.size(), fresh.size());
      EXPECT_EQ(bit_digest(reused), bit_digest(fresh))
          << "cell " << cell << ": " << what;
    };
    expect_fresh_bits(c.rates, x, "x");
    expect_fresh_bits(c.rates, twice, "2x");
    expect_fresh_bits(c.rates, nudged, "order-preserving perturbation");
    expect_fresh_bits(c.rates, negated, "-x");
    expect_fresh_bits(c.rates, tied, "ties and signed zeros");
    expect_fresh_bits(c.rates, recorded_direction(n, 4), "random");
    op.rebase(detour);
    expect_fresh_bits(detour, x, "x after rebase");
  }
}

TEST(ModelJacobianOperator, RebaseMatchesFreshOperator) {
  // The FD operator's nominal step is a function of the base; rebase() must
  // recompute it so a re-centred operator is BITWISE a fresh one (the ctor
  // used to be the only way to get a correctly sized step).
  auto model = th::single_gateway_model(12, th::fifo(),
                                        FeedbackStyle::Aggregate);
  std::vector<double> first(12, 0.01), second(12);
  for (std::size_t i = 0; i < 12; ++i) second[i] = 0.05 + 0.002 * double(i);

  ModelJacobianOperator rebased(model, first);
  rebased.rebase(second);
  const ModelJacobianOperator fresh(model, second);
  EXPECT_EQ(rebased.base_rates(), second);

  Xoshiro256 rng(5);
  std::vector<double> x(12), yr(12), yf(12);
  for (int rep = 0; rep < 3; ++rep) {
    for (auto& e : x) e = rng.uniform(-1.0, 1.0);
    rebased.apply(x, yr);
    fresh.apply(x, yf);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_DOUBLE_EQ(yr[i], yf[i]) << "component " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatcher integration.

TEST(SpectralStability, AnalyticRadiusMatchesDense) {
  auto model = th::single_gateway_model(40, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(40);
  for (std::size_t i = 0; i < 40; ++i) {
    rates[i] = (0.8 / 40.0) * (1.0 + 0.2 * double(i) / 40.0);
  }
  ffc::spectral::SpectralOptions dense_opts;
  dense_opts.method = ffc::spectral::SpectralOptions::Method::Dense;
  const auto dense = ffc::spectral::spectral_stability(model, rates, dense_opts);
  ASSERT_TRUE(dense.converged);
  // Both paths run on the operator picked once: the exact one here.
  EXPECT_TRUE(dense.analytic_jvp);
  EXPECT_EQ(dense.model_evaluations, 1u);

  ffc::spectral::SpectralOptions iter_opts;
  iter_opts.method = ffc::spectral::SpectralOptions::Method::Iterative;
  const auto analytic =
      ffc::spectral::spectral_stability(model, rates, iter_opts);
  ASSERT_TRUE(analytic.converged);
  EXPECT_TRUE(analytic.analytic_jvp);  // Auto resolves to the exact operator
  EXPECT_EQ(analytic.model_evaluations, 1u);
  EXPECT_NEAR(analytic.spectral_radius, dense.spectral_radius, 1e-6);

  // The FD operator under the same solver settings (Theorem 4's real
  // spectrum hint included) agrees too.
  const ModelJacobianOperator fd_op(model, rates, iter_opts.jvp);
  ffc::linalg::IterativeEigenOptions fd_eig = iter_opts.iterative;
  fd_eig.real_spectrum = true;
  const auto fd = ffc::linalg::iterative_eigenvalues(fd_op, 1, fd_eig);
  ASSERT_TRUE(fd.converged);
  EXPECT_GT(fd_op.evaluations(), 1u);
  EXPECT_NEAR(fd.spectral_radius, dense.spectral_radius, 1e-6);
}

// Pins the retuned Auto dispatch boundary: with the analytic operator the
// iterative path overtakes dense at N = 128 (docs/SCALING.md "Dense/iterative
// crossover"), so Auto must go dense at 127 and iterative-analytic at 128.
TEST(SpectralStability, AutoDispatchBoundaryIsPinnedAt128) {
  EXPECT_EQ(ffc::spectral::kDenseThreshold, 128u);

  const auto run = [](std::size_t n) {
    auto model = th::single_gateway_model(n, th::fair_share(),
                                          FeedbackStyle::Individual);
    std::vector<double> rates(n);
    for (std::size_t i = 0; i < n; ++i) {
      rates[i] = (0.45 / static_cast<double>(n)) *
                 (1.0 + 0.2 * static_cast<double>(i) / static_cast<double>(n));
    }
    return ffc::spectral::spectral_stability(model, rates);
  };

  const auto below = run(ffc::spectral::kDenseThreshold - 1);
  ASSERT_TRUE(below.converged);
  EXPECT_EQ(below.path, Path::Dense);
  EXPECT_TRUE(below.analytic_jvp);

  const auto at = run(ffc::spectral::kDenseThreshold);
  ASSERT_TRUE(at.converged);
  EXPECT_EQ(at.path, Path::Triangular);
  EXPECT_TRUE(at.analytic_jvp);
  EXPECT_EQ(at.model_evaluations, 1u);
}

TEST(SpectralStability, OptionValidation) {
  // A NaN manifold tolerance used to report an unstable point "stable";
  // every bad tolerance and step now fails at the entry point, on both
  // paths.
  auto model = th::single_gateway_model(2, th::fair_share(),
                                        FeedbackStyle::Individual);
  const std::vector<double> rates{0.2, 0.25};
  for (double tol : {std::numeric_limits<double>::quiet_NaN(), -1e-6,
                     std::numeric_limits<double>::infinity()}) {
    for (auto method : {ffc::spectral::SpectralOptions::Method::Dense,
                        ffc::spectral::SpectralOptions::Method::Iterative}) {
      ffc::spectral::SpectralOptions manifold;
      manifold.method = method;
      manifold.manifold_tolerance = tol;
      EXPECT_THROW(ffc::spectral::spectral_stability(model, rates, manifold),
                   std::invalid_argument)
          << "manifold_tolerance " << tol;
      ffc::spectral::SpectralOptions iterative;
      iterative.method = method;
      iterative.iterative.tolerance = tol;
      EXPECT_THROW(
          ffc::spectral::spectral_stability(model, rates, iterative),
          std::invalid_argument)
          << "iterative.tolerance " << tol;
    }
  }
  // A zero or NaN finite-difference step made the iterative FD path report
  // radius 0, "stable" and converged at a true radius of 1 (a FIFO /
  // aggregate bottleneck), -1e-5 reported 0.999, and the dense path threw a
  // misleading rate error. Every bad step now fails up front, on both paths
  // and in every finite-difference entry point.
  for (double bad : {0.0, std::numeric_limits<double>::quiet_NaN(), -1e-5,
                     std::numeric_limits<double>::infinity()}) {
    for (auto method : {ffc::spectral::SpectralOptions::Method::Dense,
                        ffc::spectral::SpectralOptions::Method::Iterative}) {
      ffc::spectral::SpectralOptions step;
      step.method = method;
      step.jvp.relative_step = bad;
      EXPECT_THROW(ffc::spectral::spectral_stability(model, rates, step),
                   std::invalid_argument)
          << "jvp.relative_step " << bad;
      step.jvp = {};
      step.jvp.step_floor = bad;
      EXPECT_THROW(ffc::spectral::spectral_stability(model, rates, step),
                   std::invalid_argument)
          << "jvp.step_floor " << bad;
    }
    EXPECT_THROW(ModelJacobianOperator(model, rates, {bad, 1e-7}),
                 std::invalid_argument)
        << "relative_step " << bad;
    EXPECT_THROW(ModelJacobianOperator(model, rates, {1e-5, bad}),
                 std::invalid_argument)
        << "step_floor " << bad;
    EXPECT_THROW(ffc::core::unilateral_stability(model, rates, {bad, 1e-7}),
                 std::invalid_argument)
        << "unilateral relative_step " << bad;
    EXPECT_THROW(ffc::core::unilateral_stability(model, rates, {1e-5, bad}),
                 std::invalid_argument)
        << "unilateral step_floor " << bad;
  }
}

TEST(SpectralStability, AutoFallsBackToFdWhenUnsupported) {
  auto binary = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(8, 1.0), th::fifo(),
      std::make_shared<ffc::core::BinarySignal>(1.0), FeedbackStyle::Aggregate,
      std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.5));
  std::vector<double> rates(8, 0.05);

  ffc::spectral::SpectralOptions opts;
  opts.method = ffc::spectral::SpectralOptions::Method::Iterative;
  const auto report = ffc::spectral::spectral_stability(binary, rates, opts);
  EXPECT_EQ(report.path, Path::Eigensolver);
  EXPECT_FALSE(report.analytic_jvp);  // Auto fell back to the FD operator

  // The analytic operator itself refuses the model.
  EXPECT_THROW(AnalyticJacobianOperator(binary, rates), std::invalid_argument);
}

TEST(SpectralStability, DenseReportCarriesTheDiagonal) {
  // §3.3's counterexample (aggregate FIFO, N = 6, eta = 1): |DF_ii| =
  // |1 - eta| = 0 < 1 for every source, yet the transverse eigenvalue
  // 1 - eta N = -5 leaves the unit circle. The dense path materializes the
  // operator it picks -- the analytic one for this differentiable stack,
  // the FD one when a layer has no closed form -- and reads the diagonal
  // bit for bit off that matrix.
  const std::size_t n = 6;
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Aggregate, 1.0, 0.5);
  auto fd_model = ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(n, 1.0), th::fifo(),
      th::rational_signal(), FeedbackStyle::Aggregate, fd_only_tsi(1.0, 0.5));
  const std::vector<double> fair(n, 0.5 / n);
  SpectralOptions dense;
  dense.method = SpectralOptions::Method::Dense;
  for (const bool analytic : {true, false}) {
    const auto& m = analytic ? model : fd_model;
    const SpectralReport r = ffc::spectral::spectral_stability(m, fair, dense);
    const ffc::linalg::Matrix df =
        analytic ? ffc::linalg::materialize(AnalyticJacobianOperator(m, fair))
                 : ffc::linalg::materialize(
                       ModelJacobianOperator(m, fair, dense.jvp));
    EXPECT_EQ(r.analytic_jvp, analytic);
    EXPECT_EQ(r.model_evaluations, analytic ? 1u : 2 * n + 1);
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(r.diagonal.size(), n);
    bool unilateral = true;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.diagonal[i]),
                std::bit_cast<std::uint64_t>(df(i, i)))
          << "analytic " << analytic << " i " << i;
      unilateral = unilateral && std::fabs(df(i, i)) < 1.0;
    }
    EXPECT_EQ(r.unilaterally_stable, unilateral);
    EXPECT_TRUE(r.unilaterally_stable);
    EXPECT_FALSE(r.stable_modulo_manifold);
    EXPECT_NEAR(r.reduced_spectral_radius, 5.0, analytic ? 1e-12 : 1e-4);
  }
  // The iterative paths never form DF, so they report no diagonal.
  SpectralOptions iterative;
  iterative.method = SpectralOptions::Method::Iterative;
  const SpectralReport r =
      ffc::spectral::spectral_stability(model, fair, iterative);
  EXPECT_NE(r.path, Path::Dense);
  EXPECT_TRUE(r.diagonal.empty());
  EXPECT_FALSE(r.unilaterally_stable);
  EXPECT_FALSE(r.stable_modulo_manifold);
}

/// n connections on one aggregate gateway of capacity n with additive TSI
/// (eta, 0.5); `twin` gives the last connection its own adjuster object
/// with the same parameters, which leaves DF unchanged but is not the
/// structure the exchangeable certificate checks for.
ffc::core::FlowControlModel symmetric_cell(
    std::size_t n, std::shared_ptr<const ffc::queueing::ServiceDiscipline> disc,
    std::shared_ptr<const ffc::core::SignalFunction> signal, double eta,
    bool twin = false) {
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> adjusters(
      n, std::make_shared<ffc::core::AdditiveTsi>(eta, 0.5));
  if (twin) adjusters.back() = std::make_shared<ffc::core::AdditiveTsi>(eta, 0.5);
  return ffc::core::FlowControlModel(
      ffc::network::single_bottleneck(n, static_cast<double>(n)),
      std::move(disc), std::move(signal), FeedbackStyle::Aggregate,
      std::move(adjusters));
}

TEST(SpectralStability, UnitRadiusIsNeverSystemicallyStable) {
  // A FIFO / aggregate bottleneck has radius exactly 1 (N - 1 manifold
  // modes). The iterative path used to read 0.99999999999998923 and
  // "stable", the dense path 1.0000000000000004 and "unstable". Two
  // adjuster objects keep the certificate off, so both solvers run; the
  // gradient-free twin of the adjuster puts the iterative path on the FD
  // operator.
  const std::size_t n = 8;
  const std::vector<double> rates(n, 0.05);
  for (auto method : {SpectralOptions::Method::Dense,
                      SpectralOptions::Method::Iterative}) {
    for (bool fd : {false, true}) {
      std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> adjusters(
          n, fd ? fd_only_tsi(0.1, 0.5)
                : std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.5));
      adjusters[0] = std::make_shared<ffc::core::AdditiveTsi>(0.1, 0.5);
      const ffc::core::FlowControlModel model(
          ffc::network::single_bottleneck(n, 1.0), th::fifo(),
          th::rational_signal(), FeedbackStyle::Aggregate, adjusters);
      SpectralOptions opts;
      opts.method = method;
      const SpectralReport r =
          ffc::spectral::spectral_stability(model, rates, opts);
      EXPECT_EQ(r.path, method == SpectralOptions::Method::Iterative
                            ? Path::Eigensolver
                            : Path::Dense);
      EXPECT_NEAR(r.spectral_radius, 1.0, 1e-6);
      EXPECT_GT(r.unit_modes_deflated, 0u);
      EXPECT_FALSE(r.systemically_stable)
          << "method " << int(method) << " fd " << fd;
      if (method == SpectralOptions::Method::Iterative) {
        EXPECT_EQ(r.analytic_jvp, !fd);
        // One solve, whatever the unit-mode cap: the dominant eigenvalue
        // is a unit mode, so the reduced radius stays unresolved.
        const auto solve = [&](const ffc::linalg::LinearOperator& op) {
          return ffc::linalg::iterative_eigenvalues(op, 1, opts.iterative)
              .applications;
        };
        const std::size_t one_solve =
            fd ? solve(ModelJacobianOperator(model, rates, opts.jvp))
               : solve(AnalyticJacobianOperator(model, rates));
        for (std::size_t cap :
             {std::size_t{0}, std::size_t{4},
              std::numeric_limits<std::size_t>::max()}) {
          const std::string what =
              "fd " + std::to_string(fd) + " cap " + std::to_string(cap);
          opts.max_unit_deflations = cap;
          const SpectralReport one =
              ffc::spectral::spectral_stability(model, rates, opts);
          EXPECT_EQ(one.applications, one_solve) << what;
          EXPECT_EQ(one.eigenvalues.size(), 1u) << what;
          EXPECT_FALSE(one.reduced_resolved) << what;
          EXPECT_FALSE(one.stable_modulo_manifold) << what;
        }
      }
    }
  }
  // The exchangeable twin (one adjuster object) agrees.
  const auto one = th::single_gateway_model(n, th::fifo(),
                                            FeedbackStyle::Aggregate);
  SpectralOptions opts;
  opts.method = SpectralOptions::Method::Iterative;
  const SpectralReport r = ffc::spectral::spectral_stability(one, rates, opts);
  EXPECT_EQ(r.path, Path::Exchangeable);
  EXPECT_GT(r.unit_modes_deflated, 0u);
  EXPECT_FALSE(r.systemically_stable);
}

// ---------------------------------------------------------------------------
// Exchangeable certificate (docs/THEORY.md section 8): the paper's S1 / S2
// symmetric bottleneck, DF = aI + b 11^T.

/// One S1 / S2 cell of the oracle grid: FIFO or PS, rational (S1, onset at
/// eta = 2) or quadratic (S2, onset at eta = sqrt 2) signal, and a gain
/// below or above the onset. With beta = 0.5 the transverse eigenvalue is
/// 1 - eta (S1) or 1 - eta sqrt 2 (S2).
struct OracleCell {
  bool ps;
  bool s2;
  double eta;
  std::shared_ptr<const ffc::queueing::ServiceDiscipline> discipline() const {
    if (ps) return std::make_shared<ffc::queueing::ProcessorSharing>();
    return th::fifo();
  }
  std::shared_ptr<const ffc::core::SignalFunction> signal() const {
    if (s2) return std::make_shared<ffc::core::QuadraticSignal>();
    return th::rational_signal();
  }
  double transverse() const {
    return s2 ? 1.0 - eta * std::sqrt(2.0) : 1.0 - eta;
  }
};

std::vector<OracleCell> oracle_cells() {
  std::vector<OracleCell> cells;
  for (bool ps : {false, true}) {
    for (bool s2 : {false, true}) {
      for (double eta : s2 ? std::vector<double>{1.0, 1.8}
                           : std::vector<double>{1.5, 2.5}) {
        cells.push_back({ps, s2, eta});
      }
    }
  }
  return cells;
}

void expect_same_verdicts(const SpectralReport& a, const SpectralReport& b,
                          const std::string& what) {
  EXPECT_NEAR(a.spectral_radius, b.spectral_radius, 1e-6) << what;
  EXPECT_NEAR(a.reduced_spectral_radius, b.reduced_spectral_radius, 1e-6)
      << what;
  EXPECT_EQ(a.systemically_stable, b.systemically_stable) << what;
  EXPECT_EQ(a.reduced_resolved, b.reduced_resolved) << what;
  EXPECT_EQ(a.stable_modulo_manifold, b.stable_modulo_manifold) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
}

std::string cell_name(std::size_t n, const OracleCell& c) {
  return "n " + std::to_string(n) + (c.ps ? " PS" : " FIFO") +
         (c.s2 ? " S2" : " S1") + " eta " + std::to_string(c.eta);
}

TEST(ExchangeableCertificate, MatchesDenseOracle) {
  for (std::size_t n : {64u, 200u}) {
    for (const OracleCell& c : oracle_cells()) {
      const auto model =
          symmetric_cell(n, c.discipline(), c.signal(), c.eta);
      const std::vector<double> rates = ffc::core::fair_steady_state(model);
      SpectralOptions dense_opts;
      dense_opts.method = SpectralOptions::Method::Dense;
      const SpectralReport dense =
          ffc::spectral::spectral_stability(model, rates, dense_opts);
      EXPECT_EQ(dense.path, Path::Dense);
      // n resolves the whole manifold; the sequence stops at the transverse
      // eigenvalue, so 4 suffices too. SIZE_MAX: the sequence's bound must
      // not wrap.
      for (std::size_t deflations :
           {std::size_t{n}, std::size_t{4},
            std::numeric_limits<std::size_t>::max()}) {
        const std::string what =
            cell_name(n, c) + " deflations " + std::to_string(deflations);
        SpectralOptions cert_opts;
        cert_opts.method = SpectralOptions::Method::Iterative;
        cert_opts.max_unit_deflations = deflations;
        const SpectralReport cert =
            ffc::spectral::spectral_stability(model, rates, cert_opts);
        ASSERT_EQ(cert.path, Path::Exchangeable) << what;
        EXPECT_TRUE(cert.analytic_jvp);
        EXPECT_EQ(cert.model_evaluations, 1u);
        expect_same_verdicts(cert, dense, what);
        // The paper's closed form: 1 - eta N / mu or 1 - 2 eta sqrt(beta).
        EXPECT_TRUE(cert.reduced_resolved) << what;
        EXPECT_NEAR(cert.reduced_spectral_radius, std::fabs(c.transverse()),
                    1e-9)
            << what;
      }
    }
  }
}

TEST(ExchangeableCertificate, MatchesIterativeOracle) {
  for (std::size_t n : {128u, 512u, 10000u}) {
    for (const OracleCell& c : oracle_cells()) {
      const auto model = symmetric_cell(n, c.discipline(), c.signal(), c.eta);
      const auto twin =
          symmetric_cell(n, c.discipline(), c.signal(), c.eta, true);
      const std::vector<double> rates = ffc::core::fair_steady_state(model);
      const AnalyticJacobianOperator op(model, rates);
      // With the unit-mode cap at 0 the certificate reports the dominant
      // eigenvalue alone: the eigensolver's answer.
      const std::string what = cell_name(n, c);
      SpectralOptions opts;
      opts.method = SpectralOptions::Method::Iterative;
      opts.max_unit_deflations = 0;
      const SpectralReport cert =
          ffc::spectral::spectral_stability(model, rates, opts);
      ASSERT_EQ(cert.path, Path::Exchangeable) << what;
      ASSERT_EQ(cert.eigenvalues.size(), 1u) << what;
      // The eigensolver over the same operator finds the same eigenvalue.
      const auto oracle =
          ffc::linalg::iterative_eigenvalues(op, 1, opts.iterative);
      ASSERT_TRUE(oracle.converged) << what;
      ASSERT_EQ(oracle.eigenvalues.size(), 1u) << what;
      EXPECT_NEAR(std::abs(cert.eigenvalues[0]),
                  std::abs(oracle.eigenvalues[0]), 1e-6)
          << what;
      // Its twin runs the iterative path to the same report.
      const SpectralReport iter =
          ffc::spectral::spectral_stability(twin, rates, opts);
      EXPECT_EQ(iter.path, Path::Eigensolver) << what;
      expect_same_verdicts(cert, iter, what);
      EXPECT_EQ(cert.unit_modes_deflated, iter.unit_modes_deflated) << what;
      EXPECT_EQ(cert.eigenvalues.size(), iter.eigenvalues.size()) << what;
      EXPECT_EQ(cert.analytic_jvp, iter.analytic_jvp) << what;
      EXPECT_EQ(cert.model_evaluations, iter.model_evaluations) << what;
    }
  }
}

/// The structural checks the certificate makes, each broken once on an S2
/// FIFO cell (N = 128, iterative path).
enum class Broken {
  Path,              ///< the last connection also crosses a second gateway
  Adjuster,          ///< the last connection has its own, equal adjuster
  RateUlp,           ///< the last rate is one ulp above the others
  FairShareTie,      ///< Fair Share at tied rates (not smooth)
  Individual,        ///< individual feedback at tied queues (not smooth)
  FiniteDifference,  ///< an adjuster without a closed-form gradient (the
                     ///< same f), so the FD operator runs, not the analytic
};

struct BrokenCell {
  ffc::core::FlowControlModel model;
  std::vector<double> rates;
  SpectralOptions options;
};

BrokenCell broken_cell(Broken kind, double eta) {
  constexpr std::size_t n = 128;
  std::vector<ffc::network::Gateway> gateways{{double(n), 0.0}};
  std::vector<ffc::network::Connection> connections(n, {{0}});
  if (kind == Broken::Path) {
    gateways.push_back({10.0 * double(n), 0.0});
    connections.back().path = {0, 1};
  }
  std::vector<std::shared_ptr<const ffc::core::RateAdjustment>> adjusters(
      n, kind == Broken::FiniteDifference
             ? fd_only_tsi(eta, 0.5)
             : std::make_shared<ffc::core::AdditiveTsi>(eta, 0.5));
  if (kind == Broken::Adjuster) {
    adjusters.back() = std::make_shared<ffc::core::AdditiveTsi>(eta, 0.5);
  }
  ffc::core::FlowControlModel model(
      ffc::network::Topology(std::move(gateways), std::move(connections)),
      kind == Broken::FairShareTie ? th::fair_share() : th::fifo(),
      std::make_shared<ffc::core::QuadraticSignal>(),
      kind == Broken::Individual ? FeedbackStyle::Individual
                                 : FeedbackStyle::Aggregate,
      std::move(adjusters));
  std::vector<double> rates = ffc::core::fair_steady_state(model);
  if (kind == Broken::RateUlp) rates.back() = std::nextafter(rates.back(), 1.0);
  SpectralOptions options;
  options.method = SpectralOptions::Method::Iterative;
  return {std::move(model), std::move(rates), options};
}

TEST(ExchangeableCertificate, FallsThroughToTheParentResult) {
  // Recorded (hex floats) from the iterative path before the certificate
  // existed: spectral radius, reduced radius, eigenvalues found, unit modes,
  // converged / reduced_resolved / stable_modulo_manifold / the old
  // systemically_stable, at eta = 1.0 (below the onset) and 1.8 (above).
  // The eigensolver path now makes one solve, so the rows whose dominant
  // eigenvalue is a unit mode (eta = 1.0, all but Individual) were
  // re-recorded: one eigenvalue, reduced radius unresolved. Their radius
  // kept its bits -- the first solve is unchanged.
  struct Recorded {
    double radius, reduced;
    std::size_t found, unit_modes;
    bool converged, resolved, modulo, old_stable;
  };
  static const Recorded kRecorded[] = {
      {0x1.fffffffffffd7p-1, 0x0p+0, 1, 1, true, false, false, true},
      {0x1.8bab6b87e9eccp+0, 0x1.8bab6b87e9eccp+0, 1, 0, true, true, false, false},
      {0x1.fffffffffffd7p-1, 0x0p+0, 1, 1, true, false, false, true},
      {0x1.8bab6b87e9eccp+0, 0x1.8bab6b87e9eccp+0, 1, 0, true, true, false, false},
      {0x1.fffffffffffd7p-1, 0x0p+0, 1, 1, true, false, false, true},
      {0x1.8bab6b87e9eccp+0, 0x1.8bab6b87e9eccp+0, 1, 0, true, true, false, false},
      {0x1.fffffffffffdap-1, 0x0p+0, 1, 1, true, false, false, true},
      {0x1.8bab6b87e9ed5p+0, 0x1.8bab6b87e9ed5p+0, 1, 0, true, true, false, false},
      {0x1.95f619980c419p-1, 0x1.95f619980c419p-1, 1, 0, true, true, true, true},
      {0x1.8bab6b87e9ed9p+0, 0x1.8bab6b87e9ed9p+0, 1, 0, true, true, false, false},
      {0x1.0000000001418p+0, 0x0p+0, 1, 1, true, false, false, false},
      {0x1.8bab6b87ba484p+0, 0x1.8bab6b87ba484p+0, 1, 0, true, true, false, false},
  };
  const Broken kinds[] = {Broken::Path,         Broken::Adjuster,
                          Broken::RateUlp,      Broken::FairShareTie,
                          Broken::Individual,   Broken::FiniteDifference};
  std::size_t k = 0;
  for (const Broken kind : kinds) {
    for (double eta : {1.0, 1.8}) {
      const Recorded& want = kRecorded[k++];
      const std::string what =
          "case " + std::to_string(int(kind)) + " eta " + std::to_string(eta);
      const BrokenCell cell = broken_cell(kind, eta);
      const SpectralReport r = ffc::spectral::spectral_stability(
          cell.model, cell.rates, cell.options);
      EXPECT_EQ(r.path, Path::Eigensolver) << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.spectral_radius),
                std::bit_cast<std::uint64_t>(want.radius))
          << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.reduced_spectral_radius),
                std::bit_cast<std::uint64_t>(want.reduced))
          << what;
      EXPECT_EQ(r.eigenvalues.size(), want.found) << what;
      EXPECT_EQ(r.unit_modes_deflated, want.unit_modes) << what;
      EXPECT_EQ(r.converged, want.converged) << what;
      EXPECT_EQ(r.reduced_resolved, want.resolved) << what;
      EXPECT_EQ(r.stable_modulo_manifold, want.modulo) << what;
      // The one intended change: a unit mode is never systemically stable.
      EXPECT_EQ(r.systemically_stable,
                want.old_stable && want.unit_modes == 0)
          << what;
    }
  }
}

}  // namespace
