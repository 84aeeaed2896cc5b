// Tests for the materialized Jacobian and the stability analyses of §3.3.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/stability.hpp"
#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "linalg/sparse_eigen.hpp"
#include "network/builders.hpp"
#include "spectral/analytic.hpp"
#include "spectral/operator.hpp"
#include "spectral/stability.hpp"

namespace {

using ffc::core::FeedbackStyle;
using ffc::core::is_triangular_under_rate_order;
using ffc::linalg::materialize;
using ffc::spectral::AnalyticJacobianOperator;
using ffc::spectral::ModelJacobianOperator;
namespace th = ffc::testing;

/// The dense spectrum of the operator spectral_stability picks.
ffc::spectral::SpectralReport dense_stability(
    const ffc::core::FlowControlModel& model, const std::vector<double>& r) {
  ffc::spectral::SpectralOptions options;
  options.method = ffc::spectral::SpectralOptions::Method::Dense;
  return ffc::spectral::spectral_stability(model, r, options);
}

TEST(Jacobian, MatchesClosedFormForAggregateAdditive) {
  // Single gateway, mu=1, FIFO, aggregate, rational signal, f = eta(beta-b):
  // b = sum r, so DF_ij = delta_ij - eta exactly (§3.3's example).
  const double eta = 0.3;
  auto model = th::single_gateway_model(3, th::fifo(),
                                        FeedbackStyle::Aggregate, eta, 0.5);
  const std::vector<double> r{0.1, 0.2, 0.15};
  const auto analytic = materialize(AnalyticJacobianOperator(model, r));
  const auto fd = materialize(ModelJacobianOperator(model, r));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double expected = (i == j ? 1.0 : 0.0) - eta;
      EXPECT_NEAR(analytic(i, j), expected, 1e-12);
      EXPECT_NEAR(fd(i, j), expected, 1e-6);
    }
  }
}

TEST(Jacobian, OneSidedDiagonalMatchesOperatorsAwayFromKinks) {
  // Away from every kink both one-sided derivatives are the two-sided one,
  // so unilateral_stability's branches agree with the materialized
  // diagonal of either operator.
  auto model = th::single_gateway_model(2, th::fair_share(),
                                        FeedbackStyle::Individual, 0.1, 0.5);
  const std::vector<double> r{0.1, 0.3};
  const auto analytic = materialize(AnalyticJacobianOperator(model, r));
  const auto fd = materialize(ModelJacobianOperator(model, r));
  EXPECT_LT(th::max_abs_diff(analytic, fd), 1e-6);
  const auto uni = ffc::core::unilateral_stability(model, r);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(uni.forward[i], analytic(i, i), 1e-4) << i;
    EXPECT_NEAR(uni.backward[i], analytic(i, i), 1e-4) << i;
  }
}

TEST(Jacobian, SizeMismatchThrows) {
  auto model = th::single_gateway_model(2, th::fifo(),
                                        FeedbackStyle::Aggregate);
  const std::vector<double> short_rates{0.1};
  EXPECT_THROW(AnalyticJacobianOperator(model, short_rates),
               std::invalid_argument);
  EXPECT_THROW(ModelJacobianOperator(model, short_rates),
               std::invalid_argument);
  EXPECT_THROW(dense_stability(model, short_rates), std::invalid_argument);
  EXPECT_THROW(ffc::core::unilateral_stability(model, short_rates),
               std::invalid_argument);
}

TEST(Unilateral, TiedBranchesAndPinnedRate) {
  // Fair Share at the fair point of one bottleneck: the rates tie, so the
  // upward branch (r_i becomes the largest of its tie group) and the
  // downward one (the smallest) differ. 2N + 1 model evaluations read both
  // off the model. A rate pinned at 0 has no downward branch.
  const std::size_t n = 4;
  auto model = th::single_gateway_model(n, th::fair_share(),
                                        FeedbackStyle::Individual, 0.3, 0.5);
  const std::vector<double> fair = ffc::core::fair_steady_state(model);
  const auto uni = ffc::core::unilateral_stability(model, fair);
  ASSERT_EQ(uni.forward.size(), n);
  ASSERT_EQ(uni.backward.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(std::fabs(uni.forward[i] - uni.backward[i]), 1e-3) << i;
  }
  std::vector<double> pinned(n, 0.1);
  pinned[1] = 0.0;
  EXPECT_THROW(ffc::core::unilateral_stability(model, pinned),
               std::invalid_argument);
}

TEST(Stability, AggregateUnilateralButNotSystemic) {
  // The paper's §3.3 example: eta < 2 gives |DF_ii| = |1 - eta| < 1 for all
  // i, yet the leading eigenvalue 1 - eta N is unstable for N > 2/eta.
  const double eta = 0.5;
  const std::size_t n = 8;  // eta N = 4 >> 2
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Aggregate, eta, 0.5);
  const std::vector<double> r_ss(n, 0.5 / n);
  const auto report = dense_stability(model, r_ss);
  EXPECT_TRUE(report.unilaterally_stable);
  EXPECT_FALSE(report.systemically_stable);
  EXPECT_NEAR(report.spectral_radius, std::fabs(1.0 - eta * n), 1e-4);
  // The N-1 manifold directions carry eigenvalue exactly 1.
  EXPECT_EQ(report.unit_modes_deflated, n - 1);
}

TEST(Stability, AggregateSmallNetworkFullyStable) {
  const double eta = 0.5;
  const std::size_t n = 3;  // eta N = 1.5 < 2
  auto model = th::single_gateway_model(n, th::fifo(),
                                        FeedbackStyle::Aggregate, eta, 0.5);
  const std::vector<double> r_ss(n, 0.5 / n);
  const auto report = dense_stability(model, r_ss);
  EXPECT_TRUE(report.unilaterally_stable);
  EXPECT_TRUE(report.stable_modulo_manifold);
  EXPECT_NEAR(report.reduced_spectral_radius, std::fabs(1.0 - eta * n),
              1e-4);
}

TEST(Stability, FairShareIndividualJacobianIsTriangular) {
  auto model = th::single_gateway_model(4, th::fair_share(),
                                        FeedbackStyle::Individual, 0.1, 0.5);
  // Analyze at a NON-steady point with distinct rates, where triangularity
  // is a structural property of Fair Share (Q_i ignores larger rates).
  const std::vector<double> r{0.05, 0.1, 0.2, 0.3};
  const auto df = materialize(AnalyticJacobianOperator(model, r));
  EXPECT_TRUE(is_triangular_under_rate_order(df, r, 1e-5));
}

TEST(Stability, FifoIndividualJacobianIsNotTriangular) {
  auto model = th::single_gateway_model(3, th::fifo(),
                                        FeedbackStyle::Individual, 0.1, 0.5);
  const std::vector<double> r{0.05, 0.15, 0.3};
  const auto df = materialize(AnalyticJacobianOperator(model, r));
  EXPECT_FALSE(is_triangular_under_rate_order(df, r, 1e-5));
}

TEST(Stability, FairShareEigenvaluesAreDiagonal) {
  auto model = th::single_gateway_model(4, th::fair_share(),
                                        FeedbackStyle::Individual, 0.3, 0.5);
  const std::vector<double> r{0.04, 0.09, 0.16, 0.21};
  const auto report = dense_stability(model, r);
  // Triangular matrix: spectral radius equals max |diagonal|.
  double max_diag = 0.0;
  for (double d : report.diagonal) max_diag = std::max(max_diag, std::fabs(d));
  EXPECT_NEAR(report.spectral_radius, max_diag, 1e-4);
}

TEST(Stability, TriangularityCheckerToleratesTies) {
  ffc::linalg::Matrix jac{{1.0, 0.5}, {0.5, 1.0}};
  // Equal rates: the pair is a tie group, exempt from the triangularity
  // requirement.
  EXPECT_TRUE(is_triangular_under_rate_order(jac, {0.2, 0.2}, 1e-9));
  EXPECT_FALSE(is_triangular_under_rate_order(jac, {0.1, 0.2}, 1e-9));
}

TEST(Stability, TriangularityCheckerValidatesShape) {
  ffc::linalg::Matrix jac(2, 3);
  EXPECT_THROW(is_triangular_under_rate_order(jac, {0.1, 0.2}, 1e-9),
               std::invalid_argument);
}

TEST(Stability, TriangularityCheckerValidatesToleranceAndRates) {
  // A NaN tolerance made every |entry| > tol false, so a full matrix read
  // as triangular; a NaN rate broke the sort's strict weak ordering.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ffc::linalg::Matrix jac{{1.0, 0.5}, {0.5, 1.0}};
  for (double tol : {nan, inf, -1e-9}) {
    EXPECT_THROW(is_triangular_under_rate_order(jac, {0.1, 0.2}, tol),
                 std::invalid_argument)
        << "tol " << tol;
  }
  for (double bad : {nan, inf, -inf}) {
    EXPECT_THROW(is_triangular_under_rate_order(jac, {0.1, bad}, 1e-9),
                 std::invalid_argument)
        << "rate " << bad;
  }
  EXPECT_TRUE(is_triangular_under_rate_order(jac, {0.2, 0.2}, 0.0));
}

}  // namespace
