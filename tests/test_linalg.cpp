// Tests for the dense linear-algebra substrate: Matrix and eigenvalues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace {

using ffc::linalg::eigenvalues;
using ffc::linalg::hessenberg;
using ffc::linalg::Matrix;
using ffc::linalg::norm2;
using ffc::linalg::spectral_radius;
using ffc::linalg::Vector;

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, ArithmeticOperations) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, Product) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{0, 1}, {1, 0}};
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 3.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, ApplyVector) {
  Matrix a{{1, 2}, {3, 4}};
  const Vector y = a.apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, TransposeAndTriangularChecks) {
  Matrix a{{1, 2}, {0, 3}};
  EXPECT_TRUE(a.is_upper_triangular());
  EXPECT_FALSE(a.is_lower_triangular());
  EXPECT_TRUE(a.transposed().is_lower_triangular());
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  Matrix a{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  EXPECT_TRUE(Matrix::approx_equal(eye * a, a, 1e-14));
}

TEST(Hessenberg, PreservesEigenvaluesOfDiagonalizable) {
  Matrix a{{4, 1, 0.5}, {2, 3, 1}, {0.5, 1, 2}};
  const Matrix h = hessenberg(a);
  // Hessenberg: zero below first subdiagonal.
  EXPECT_NEAR(h(2, 0), 0.0, 1e-12);
  const auto ea = eigenvalues(a);
  const auto eh = eigenvalues(h);
  ASSERT_EQ(ea.values.size(), eh.values.size());
  for (std::size_t i = 0; i < ea.values.size(); ++i) {
    EXPECT_NEAR(std::abs(ea.values[i]), std::abs(eh.values[i]), 1e-8);
  }
}

TEST(Eigen, DiagonalMatrix) {
  Matrix a{{3, 0, 0}, {0, -2, 0}, {0, 0, 0.5}};
  const auto res = eigenvalues(a);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.values.size(), 3u);
  EXPECT_NEAR(std::abs(res.values[0]), 3.0, 1e-10);
  EXPECT_NEAR(std::abs(res.values[1]), 2.0, 1e-10);
  EXPECT_NEAR(std::abs(res.values[2]), 0.5, 1e-10);
}

TEST(Eigen, KnownSymmetricSpectrum) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  const auto res = eigenvalues(a);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.values[0].real(), 3.0, 1e-10);
  EXPECT_NEAR(res.values[1].real(), 1.0, 1e-10);
}

TEST(Eigen, ComplexPairOfRotation) {
  // Rotation by 90 degrees: eigenvalues +/- i.
  Matrix a{{0, -1}, {1, 0}};
  const auto res = eigenvalues(a);
  ASSERT_TRUE(res.converged);
  for (const auto& v : res.values) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-10);
    EXPECT_NEAR(v.real(), 0.0, 1e-10);
  }
}

TEST(Eigen, RankOnePerturbationOfIdentity) {
  // I - eta * ones: eigenvalues 1 - eta*N (once) and 1 (N-1 times) -- the
  // paper's aggregate-feedback stability matrix (§3.3).
  const std::size_t n = 8;
  const double eta = 0.5;
  Matrix a(n, n, -eta);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  const auto res = eigenvalues(a);
  ASSERT_TRUE(res.converged);
  // Largest magnitude is |1 - eta*N| = 3.
  EXPECT_NEAR(std::abs(res.values[0]), std::fabs(1.0 - eta * n), 1e-8);
  int unit_count = 0;
  for (const auto& v : res.values) {
    if (std::abs(std::abs(v) - 1.0) < 1e-8) ++unit_count;
  }
  EXPECT_EQ(unit_count, static_cast<int>(n - 1));
}

TEST(Eigen, ExactClusterOfEqualEigenvaluesConverges) {
  // a I + b 11^T, the exact Jacobian of a symmetric bottleneck: a with
  // multiplicity n - 1 and a + n b once. Reduction leaves the cluster's
  // subdiagonals at the eps * max|H| roundoff level, which a purely
  // relative deflation test never accepts.
  const std::pair<double, double> coefficients[] = {
      {1.0, -0.5}, {1.0, 0.3}, {0.4, -0.25}, {-0.7, 0.05}, {0.99, -1e-3}};
  for (const std::size_t n : {2u, 3u, 5u, 8u, 16u, 31u, 64u}) {
    for (const auto& [a, b] : coefficients) {
      Matrix m(n, n, b);
      for (std::size_t i = 0; i < n; ++i) m(i, i) += a;
      const auto res = eigenvalues(m);
      const double transverse = a + b * static_cast<double>(n);
      ASSERT_TRUE(res.converged) << "n=" << n << " a=" << a << " b=" << b;
      ASSERT_EQ(res.values.size(), n);
      std::size_t cluster = 0;
      bool transverse_found = false;
      for (const auto& lambda : res.values) {
        EXPECT_NEAR(lambda.imag(), 0.0, 1e-10);
        if (std::abs(lambda - a) < 1e-10) {
          ++cluster;
        } else {
          EXPECT_NEAR(lambda.real(), transverse, 1e-10)
              << "n=" << n << " a=" << a << " b=" << b;
          transverse_found = true;
        }
      }
      EXPECT_EQ(cluster + (transverse_found ? 1 : 0), n);
      EXPECT_NEAR(spectral_radius(m),
                  std::max(std::fabs(a), std::fabs(transverse)), 1e-10)
          << "n=" << n << " a=" << a << " b=" << b;
    }
  }
}

TEST(Eigen, TriangularMatrixEigenvaluesAreDiagonal) {
  Matrix a{{0.5, 0, 0}, {2, -0.25, 0}, {1, 7, 0.9}};
  const auto res = eigenvalues(a);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(std::abs(res.values[0]), 0.9, 1e-9);
  EXPECT_NEAR(std::abs(res.values[1]), 0.5, 1e-9);
  EXPECT_NEAR(std::abs(res.values[2]), 0.25, 1e-9);
}

TEST(Eigen, SpectralRadiusMatchesPowerIteration) {
  Matrix a{{0.9, 0.3, 0.0}, {0.1, 0.6, 0.2}, {0.0, 0.1, 0.7}};
  const double qr = spectral_radius(a);
  // Independent cross-check: power iteration from a generic positive start
  // (a is nonnegative and irreducible, so its dominant eigenvalue is simple).
  Vector v{1.0, 1.37, 1.74};
  double pi = 0.0;
  for (int it = 0; it < 2000; ++it) {
    Vector w = a.apply(v);
    const double norm = norm2(w);
    for (double& x : w) x /= norm;
    pi = norm2(a.apply(w));
    v = std::move(w);
  }
  EXPECT_NEAR(qr, pi, 1e-6);
}

TEST(Eigen, LargeRandomishMatrixConverges) {
  const std::size_t n = 24;
  Matrix a(n, n);
  // Deterministic pseudo-random fill.
  double v = 0.123;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      v = std::fmod(v * 37.41 + 0.719, 1.0);
      a(i, j) = v - 0.5;
    }
  }
  const auto res = eigenvalues(a);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.values.size(), n);
  // Sum of eigenvalues equals the trace.
  std::complex<double> sum = 0.0;
  for (const auto& lambda : res.values) sum += lambda;
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
  EXPECT_NEAR(sum.real(), trace, 1e-6);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-6);
}

TEST(Eigen, EmptyAndOneByOne) {
  EXPECT_TRUE(eigenvalues(Matrix()).values.empty());
  Matrix one{{5.0}};
  const auto res = eigenvalues(one);
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_NEAR(res.values[0].real(), 5.0, 1e-14);
}

TEST(VectorOps, NormsAndDot) {
  const Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(ffc::linalg::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(ffc::linalg::norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(ffc::linalg::dot(v, v), 25.0);
  EXPECT_THROW(ffc::linalg::dot(v, {1.0}), std::invalid_argument);
}

}  // namespace
