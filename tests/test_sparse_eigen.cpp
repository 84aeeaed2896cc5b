// Iterative eigensolver tests: correctness on known spectra, the Arnoldi
// fallback for complex-dominant matrices, its integer budgets, and the golden
// sparse-vs-dense equivalence the large-N engine rests on -- the iterative
// spectral radius must agree with the dense Hessenberg+QR solver to 1e-8 on
// the SAME matrix for N up to 1024, across random topologies, tied rates,
// and saturated gateways (docs/SCALING.md).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/steady_state.hpp"
#include "helpers.hpp"
#include "linalg/eigen.hpp"
#include "linalg/sparse_eigen.hpp"
#include "network/builders.hpp"
#include "spectral/analytic.hpp"
#include "spectral/operator.hpp"
#include "spectral/stability.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::FeedbackStyle;
using ffc::linalg::IterativeEigenOptions;
using ffc::linalg::IterativeEigenResult;
using ffc::linalg::IterativeMethod;
using ffc::linalg::Matrix;
using ffc::linalg::MatrixOperator;
using ffc::linalg::iterative_eigenvalues;
using ffc::linalg::materialize;
using ffc::stats::Xoshiro256;
namespace th = ffc::testing;

constexpr double kGoldenTol = 1e-8;

TEST(SparseEigen, DiagonalDominant) {
  const Matrix a{{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 0.5}};
  const MatrixOperator op(a);
  const auto result = iterative_eigenvalues(op, 1);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.spectral_radius, 3.0, 1e-10);
  EXPECT_EQ(result.method, IterativeMethod::Power);
}

TEST(SparseEigen, NegativeDominantEigenvalue) {
  // The signed Rayleigh quotient must lock onto lambda = -2 even though the
  // iterate flips sign every step.
  const Matrix a{{-2.0, 1.0}, {0.0, 0.9}};
  const auto result = iterative_eigenvalues(MatrixOperator(a), 1);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.spectral_radius, 2.0, 1e-10);
  ASSERT_FALSE(result.eigenvalues.empty());
  EXPECT_NEAR(result.eigenvalues[0].real(), -2.0, 1e-9);
  EXPECT_NEAR(result.eigenvalues[0].imag(), 0.0, 1e-12);
}

TEST(SparseEigen, ComplexDominantPairFallsBackToArnoldi) {
  // Scaled rotation: eigenvalues 1.5 e^{+-i pi/4}; power iteration cannot
  // converge, the Arnoldi fallback must.
  const double c = 1.5 * std::cos(0.25 * 3.14159265358979323846);
  const double s = 1.5 * std::sin(0.25 * 3.14159265358979323846);
  const Matrix a{{c, -s, 0.0}, {s, c, 0.0}, {0.0, 0.0, 0.25}};
  const auto result = iterative_eigenvalues(MatrixOperator(a), 1);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.method, IterativeMethod::Arnoldi);
  EXPECT_NEAR(result.spectral_radius, 1.5, 1e-9);
  // The whole conjugate pair is reported.
  ASSERT_EQ(result.eigenvalues.size(), 2u);
  EXPECT_NEAR(std::abs(result.eigenvalues[0].imag()), s, 1e-8);
}

TEST(SparseEigen, ZeroAndIdentityMatrices) {
  const Matrix zero(5, 5, 0.0);
  const auto rz = iterative_eigenvalues(MatrixOperator(zero), 1);
  ASSERT_TRUE(rz.converged);
  EXPECT_EQ(rz.spectral_radius, 0.0);

  Matrix eye(7, 7, 0.0);
  for (std::size_t i = 0; i < 7; ++i) eye(i, i) = 1.0;
  const auto ri = iterative_eigenvalues(MatrixOperator(eye), 1);
  ASSERT_TRUE(ri.converged);
  EXPECT_NEAR(ri.spectral_radius, 1.0, 1e-12);
}

TEST(SparseEigen, RepeatedDominantEigenvalueConverges) {
  // Multiplicity is harmless for power iteration (any vector of the
  // eigenspace is an eigenvector) -- unlike a close-but-distinct cluster.
  Matrix a(6, 6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) = i < 4 ? 1.25 : 0.3;
  a(0, 5) = 0.7;
  const auto result = iterative_eigenvalues(MatrixOperator(a), 1);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.spectral_radius, 1.25, 1e-10);
}

TEST(SparseEigen, IntegerBudgetsAtZeroAndSizeMax) {
  // 8 x 8: a dominant complex pair 1.5 e^{+-i pi/4}, so power iteration
  // cannot converge and Arnoldi must, above six real eigenvalues. Each
  // budget is tried at 0 and SIZE_MAX through the options alone; nothing
  // is sized by a budget (the Krylov basis is capped at the dimension).
  const double c = 1.5 * std::cos(0.25 * 3.14159265358979323846);
  const double s = 1.5 * std::sin(0.25 * 3.14159265358979323846);
  Matrix a(8, 8, 0.0);
  a(0, 0) = c;
  a(0, 1) = -s;
  a(1, 0) = s;
  a(1, 1) = c;
  const double diagonal[6] = {0.9, -0.7, 0.5, 0.3, -0.2, 0.1};
  for (std::size_t k = 0; k < 6; ++k) a(k + 2, k + 2) = diagonal[k];
  a(2, 3) = 0.4;
  const MatrixOperator op(a);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const auto solve = [&op](auto set) {
    IterativeEigenOptions opts;
    set(opts);
    return iterative_eigenvalues(op, 1, opts);
  };
  const auto expect_pair = [](const IterativeEigenResult& result) {
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.method, IterativeMethod::Arnoldi);
    EXPECT_NEAR(result.spectral_radius, 1.5, 1e-9);
  };
  for (const std::size_t budget : {std::size_t{0}, kMax}) {
    // 0 skips the power stage; SIZE_MAX is capped at the 300-step probe
    // without the real-spectrum hint.
    const auto power = solve([&](auto& o) { o.power_iterations = budget; });
    expect_pair(power);
    EXPECT_LE(power.applications, 300u + 8u);
    // The real-spectrum hint (wrong here) lifts the 300-step cap: SIZE_MAX
    // still returns, since the power stage hands over once its residual
    // stops contracting.
    expect_pair(solve([&](auto& o) {
      o.real_spectrum = true;
      o.power_iterations = budget;
    }));
    // 0 runs one cycle: the full 8-dimensional Krylov space is invariant.
    expect_pair(solve([&](auto& o) { o.arnoldi_restarts = budget; }));
  }
  expect_pair(solve([](auto& o) { o.arnoldi_subspace = kMax; }));
  EXPECT_THROW(solve([](auto& o) { o.arnoldi_subspace = 0; }),
               std::invalid_argument);

  // The count: the solver computes the dominant eigenvalue only. 0 returns
  // an empty, converged result in both forms; 2 and SIZE_MAX throw a
  // diagnostic that names the limit.
  ffc::linalg::SparseEigenWorkspace ws;
  IterativeEigenResult into;
  ffc::linalg::iterative_eigenvalues_into(op, 1, {}, ws, into);
  expect_pair(into);
  ffc::linalg::iterative_eigenvalues_into(op, 0, {}, ws, into);
  for (const IterativeEigenResult& none :
       {into, iterative_eigenvalues(op, 0)}) {
    EXPECT_TRUE(none.converged);
    EXPECT_TRUE(none.eigenvalues.empty());
    EXPECT_EQ(none.spectral_radius, 0.0);
    EXPECT_EQ(none.applications, 0u);
  }
  const auto expect_limit = [](auto call) {
    try {
      call();
      ADD_FAILURE() << "count > 1 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("0 or 1"), std::string::npos)
          << e.what();
    }
  };
  for (const std::size_t count : {std::size_t{2}, kMax}) {
    expect_limit([&] { iterative_eigenvalues(op, count); });
    expect_limit([&] {
      ffc::linalg::iterative_eigenvalues_into(op, count, {}, ws, into);
    });
  }

  // The probe hands over once its first 8-step contraction window shows
  // no progress (9 applications), then one two-vector cycle and no
  // restart: 11 applications, whatever the estimate's residual.
  const auto single = solve([](auto& o) {
    o.arnoldi_subspace = 2;
    o.arnoldi_restarts = 0;
  });
  EXPECT_EQ(single.applications, 11u);

  // With the hint, the power budget is the budget: SIZE_MAX stops at
  // convergence on a real, separated spectrum.
  const Matrix real_diag{{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 0.5}};
  IterativeEigenOptions hinted;
  hinted.real_spectrum = true;
  hinted.power_iterations = kMax;
  const auto power =
      iterative_eigenvalues(MatrixOperator(real_diag), 1, hinted);
  EXPECT_TRUE(power.converged);
  EXPECT_EQ(power.method, IterativeMethod::Power);
  EXPECT_NEAR(power.spectral_radius, 3.0, 1e-10);
}

/// Q D Q^T for a seeded orthogonal Q (Householder product): a symmetric
/// matrix with the prescribed real spectrum `d` and generic eigenvectors.
Matrix with_spectrum(const std::vector<double>& d, std::uint64_t seed) {
  const std::size_t n = d.size();
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = d[i];
  Xoshiro256 rng(seed);
  for (int reflection = 0; reflection < 3; ++reflection) {
    std::vector<double> u(n);
    double sq_norm = 0.0;
    for (double& e : u) {
      e = rng.uniform(-1.0, 1.0);
      sq_norm += e * e;
    }
    // a <- H a H with H = I - 2 u u^T / |u|^2.
    const double f = 2.0 / sq_norm;
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t r = 0; r < n; ++r) s += u[r] * a(r, c);
      for (std::size_t r = 0; r < n; ++r) a(r, c) -= f * u[r] * s;
    }
    for (std::size_t r = 0; r < n; ++r) {
      double s = 0.0;
      for (std::size_t c = 0; c < n; ++c) s += a(r, c) * u[c];
      for (std::size_t c = 0; c < n; ++c) a(r, c) -= f * s * u[c];
    }
  }
  return a;
}

TEST(SparseEigen, ArnoldiStagnationEndsUnboundedRestarts) {
  // The cyclic shift of size 200: every eigenvalue is a 200th root of
  // unity, so no Ritz vector of an 8-dimensional Krylov space is ever an
  // eigenvector. With unbounded restarts the stage must still return,
  // unconverged, once the Ritz residual stops setting new minima.
  constexpr std::size_t n = 200;
  Matrix shift(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) shift((i + 1) % n, i) = 1.0;
  IterativeEigenOptions opts;
  opts.arnoldi_subspace = 8;
  opts.arnoldi_restarts = std::numeric_limits<std::size_t>::max();
  const auto result = iterative_eigenvalues(MatrixOperator(shift), 1, opts);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.method, IterativeMethod::Arnoldi);
  EXPECT_GT(result.residual, opts.tolerance);
  EXPECT_LT(result.applications, 1000u);
}

TEST(SparseEigen, ClusteredRealSpectrumHandsOverEarly) {
  // Ten eigenvalues within 0.5 % below the radius 0.99, the rest spread in
  // [-0.6, 0.6]: power iteration contracts by about 0.999 per step and
  // cannot reach 1e-10 in 2000 steps, so it hands over to Arnoldi long
  // before its budget ends; Arnoldi matches dense QR.
  constexpr std::size_t n = 120;
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = i < 10 ? 0.99 - 0.0005 * double(i)
                  : -0.6 + 1.2 * double(i - 10) / double(n - 10);
  }
  const Matrix a = with_spectrum(d, 31);
  IterativeEigenOptions opts;
  opts.real_spectrum = true;
  const auto result = iterative_eigenvalues(MatrixOperator(a), 1, opts);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.method, IterativeMethod::Arnoldi);
  EXPECT_NEAR(result.spectral_radius, ffc::linalg::spectral_radius(a),
              kGoldenTol);
  EXPECT_NEAR(result.spectral_radius, 0.99, kGoldenTol);
  EXPECT_LT(result.applications, opts.power_iterations / 4);
}

TEST(SparseEigen, SeparatedSpectrumStaysOnPowerWithoutABasis) {
  // Radius 0.8 over a spectrum in [-0.5, 0.5]: power iteration contracts
  // by 0.625 per step and converges itself, in O(N) memory -- the Krylov
  // basis is never sized.
  constexpr std::size_t n = 120;
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = i == 0 ? 0.8 : -0.5 + double(i - 1) / double(n - 2);
  }
  const Matrix a = with_spectrum(d, 47);
  IterativeEigenOptions opts;
  opts.real_spectrum = true;
  ffc::linalg::SparseEigenWorkspace ws;
  IterativeEigenResult result;
  ffc::linalg::iterative_eigenvalues_into(MatrixOperator(a), 1, opts, ws,
                                          result);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.method, IterativeMethod::Power);
  EXPECT_NEAR(result.spectral_radius, 0.8, 1e-9);
  EXPECT_TRUE(ws.basis.empty());
}

TEST(SparseEigen, RandomDenseMatricesMatchQr) {
  Xoshiro256 rng(20260807);
  for (const std::size_t n : {8u, 32u, 96u}) {
    for (int rep = 0; rep < 3; ++rep) {
      Matrix a(n, n, 0.0);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          a(r, c) = rng.uniform(-1.0, 1.0) / std::sqrt(double(n));
        }
      }
      const double dense = ffc::linalg::spectral_radius(a);
      const auto iter = iterative_eigenvalues(MatrixOperator(a), 1);
      ASSERT_TRUE(iter.converged) << "n=" << n << " rep=" << rep;
      EXPECT_NEAR(iter.spectral_radius, dense, kGoldenTol)
          << "n=" << n << " rep=" << rep;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden sparse-vs-dense equivalence on model Jacobians. Both solvers see
// the SAME materialized matrix -- the exact analytic DF and the
// finite-difference one -- so any disagreement is solver error, not
// discretization noise.

// Returns false when the dense QR reference itself fails to converge:
// there is no trusted value to compare against in that case.
bool expect_same_radius(const ffc::core::FlowControlModel& model,
                        const std::vector<double>& rates, const char* what) {
  for (const Matrix& df :
       {materialize(ffc::spectral::AnalyticJacobianOperator(model, rates)),
        materialize(ffc::spectral::ModelJacobianOperator(model, rates))}) {
    const auto dense = ffc::linalg::eigenvalues(df);
    if (!dense.converged) return false;
    double dense_radius = 0.0;
    for (const auto& lambda : dense.values) {
      dense_radius = std::max(dense_radius, std::abs(lambda));
    }
    const auto iter = iterative_eigenvalues(MatrixOperator(df), 1);
    EXPECT_TRUE(iter.converged) << what;
    EXPECT_NEAR(iter.spectral_radius, dense_radius, kGoldenTol) << what;
  }
  return true;
}

TEST(SparseDenseGolden, RandomTopologies) {
  Xoshiro256 rng(424242);
  int compared = 0;
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
      if (expect_same_radius(model, rates, "random topology")) ++compared;
    }
  }
  // The dense reference converges on every matrix of the sweep, including
  // the near-defective pairs that the textbook 2x2 discriminant loses.
  EXPECT_EQ(compared, 8);
}

TEST(SparseDenseGolden, TiedRatesAtFairSteadyState) {
  // Exact ties put F on its MAX/MIN kinks -- the hardest case for the
  // finite-difference matrix; the two eigensolvers must still agree on it.
  for (auto style : {FeedbackStyle::Aggregate, FeedbackStyle::Individual}) {
    auto model = th::single_gateway_model(48, th::fair_share(), style);
    const std::vector<double> fair = ffc::core::fair_steady_state(model);
    EXPECT_TRUE(expect_same_radius(model, fair, "tied fair steady state"));
  }
}

TEST(SparseDenseGolden, SaturatedGateway) {
  // Total load beyond capacity: infinite queues, pinned signals B = 1.
  auto model = th::single_gateway_model(16, th::fifo(),
                                        FeedbackStyle::Aggregate);
  std::vector<double> rates(16, 0.12);  // rho_total = 1.92
  EXPECT_TRUE(expect_same_radius(model, rates, "saturated gateway"));
}

TEST(SparseDenseGolden, LargeSingleBottleneck1024) {
  // The acceptance bound at the top of the dense range: N = 1024.
  auto model = th::single_gateway_model(1024, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(1024);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = (0.9 / 1024.0) * (1.0 + 0.3 * double(i) / 1024.0);
  }
  const Matrix df =
      materialize(ffc::spectral::AnalyticJacobianOperator(model, rates));
  const double dense = ffc::linalg::spectral_radius(df);
  IterativeEigenOptions opts;
  opts.real_spectrum = true;  // Theorem 4: individual + FairShare
  const auto iter = iterative_eigenvalues(MatrixOperator(df), 1, opts);
  ASSERT_TRUE(iter.converged);
  EXPECT_NEAR(iter.spectral_radius, dense, kGoldenTol);
}

// ---------------------------------------------------------------------------
// Matrix-free operator and the threshold dispatcher.

TEST(ModelJacobianOperator, MatchesDenseJacobianAction) {
  auto model = th::single_gateway_model(12, th::fifo(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(12);
  for (std::size_t i = 0; i < 12; ++i) rates[i] = 0.02 + 0.003 * double(i);
  const Matrix df =
      materialize(ffc::spectral::AnalyticJacobianOperator(model, rates));
  const ffc::spectral::ModelJacobianOperator op(model, rates);

  Xoshiro256 rng(7);
  std::vector<double> x(12), y(12), exact(12);
  for (int rep = 0; rep < 5; ++rep) {
    for (auto& e : x) e = rng.uniform(-1.0, 1.0);
    op.apply(x, y);
    MatrixOperator(df).apply(x, exact);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(y[i], exact[i], 2e-5) << "component " << i;
    }
  }
}

TEST(ModelJacobianOperator, BoundaryRatesFallBackOneSided) {
  // A connection pinned at zero rate blocks the symmetric probe; the
  // operator must degrade gracefully instead of evaluating F at negative
  // rates (which would throw through the validated path).
  auto model = th::single_gateway_model(6, th::fifo(), FeedbackStyle::Aggregate);
  std::vector<double> rates(6, 0.05);
  rates[2] = 0.0;
  const ffc::spectral::ModelJacobianOperator op(model, rates);
  std::vector<double> x(6, 1.0), y(6);
  EXPECT_NO_THROW(op.apply(x, y));
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(SpectralStability, MatrixFreeRadiusMatchesDense) {
  // Model-level agreement (finite-difference noise included): the iterative
  // matrix-free radius and the dense-QR radius at the same smooth point.
  auto model = th::single_gateway_model(40, th::fair_share(),
                                        FeedbackStyle::Individual);
  std::vector<double> rates(40);
  for (std::size_t i = 0; i < 40; ++i) {
    rates[i] = (0.8 / 40.0) * (1.0 + 0.2 * double(i) / 40.0);
  }
  ffc::spectral::SpectralOptions dense_opts;
  dense_opts.method = ffc::spectral::SpectralOptions::Method::Dense;
  const auto dense = ffc::spectral::spectral_stability(model, rates, dense_opts);
  ffc::spectral::SpectralOptions iter_opts;
  iter_opts.method = ffc::spectral::SpectralOptions::Method::Iterative;
  const auto iter = ffc::spectral::spectral_stability(model, rates, iter_opts);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(iter.converged);
  EXPECT_EQ(dense.path, ffc::spectral::SpectralReport::Path::Dense);
  // Theorem 4 structure detected: the solver ran with the real-spectrum hint.
  EXPECT_EQ(iter.path, ffc::spectral::SpectralReport::Path::Triangular);
  EXPECT_NEAR(iter.spectral_radius, dense.spectral_radius, 1e-6);
  EXPECT_EQ(iter.systemically_stable, dense.systemically_stable);
}

TEST(SpectralStability, AutoThresholdDispatches) {
  const auto run = [](std::size_t n) {
    auto model =
        th::single_gateway_model(n, th::fifo(), FeedbackStyle::Aggregate);
    return ffc::spectral::spectral_stability(
        model, std::vector<double>(n, 0.4 / static_cast<double>(n)));
  };
  // Auto goes dense below kDenseThreshold = 128 ...
  EXPECT_EQ(run(127).path, ffc::spectral::SpectralReport::Path::Dense);
  // ... and iterative at it: FIFO has no Theorem-4 structure, and the
  // symmetric cell is certified.
  EXPECT_EQ(run(128).path, ffc::spectral::SpectralReport::Path::Exchangeable);
}

}  // namespace
