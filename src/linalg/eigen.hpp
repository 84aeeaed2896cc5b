// Eigenvalues of general real matrices.
//
// The paper's stability criterion (§2.4.3) is that all eigenvalues of the
// Jacobian DF of the flow-control map r̂ = F(r) have magnitude < 1. We compute
// them by reducing to upper Hessenberg form (real Householder reflections)
// and then running a shifted QR iteration in complex arithmetic with
// Wilkinson shifts and deflation. Complex QR avoids the index gymnastics of
// the Francis double-shift and is fully adequate at the sizes we care about
// (one row per connection).
#pragma once

#include <array>
#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace ffc::linalg {

/// Reduces a square matrix to upper Hessenberg form by Householder
/// similarity transforms. The result has the same eigenvalues as the input.
Matrix hessenberg(Matrix a);

/// Result of an eigenvalue computation.
struct EigenResult {
  /// Eigenvalues; complex-conjugate pairs of a real matrix appear as such
  /// (up to roundoff). Sorted by decreasing magnitude.
  std::vector<std::complex<double>> values;
  /// False if the QR iteration hit its iteration cap before fully deflating;
  /// `values` then holds only the eigenvalues deflated so far (fewer than
  /// n). Callers must not read a verdict off an unconverged spectrum.
  bool converged = true;
};

/// Reusable buffers of eigenvalues_into. Each grows to the largest matrix
/// seen and then stays put.
struct EigenWorkspace {
  Matrix hess;                                   ///< Hessenberg reduction
  std::vector<double> householder;               ///< reflection vector
  std::vector<std::complex<double>> h;           ///< complex QR iterate
  std::vector<std::array<std::complex<double>, 4>> rotations;  ///< Givens
};

/// Computes all eigenvalues of a square real matrix into `result`. Once
/// `ws` and result.values have grown to n, a call allocates nothing.
void eigenvalues_into(const Matrix& a, EigenWorkspace& ws,
                      EigenResult& result);

/// Allocating convenience wrapper of eigenvalues_into.
EigenResult eigenvalues(const Matrix& a);

/// Largest eigenvalue magnitude; the stability analyses compare this
/// against 1. Throws std::runtime_error if the iteration failed.
double spectral_radius(const Matrix& a);

}  // namespace ffc::linalg
