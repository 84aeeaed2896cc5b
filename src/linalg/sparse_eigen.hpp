// Iterative (matrix-free) estimation of the dominant eigenvalue.
//
// The dense Hessenberg+QR path in eigen.hpp materializes the full N x N
// matrix and costs O(N^3) -- fine for N <= ~1000, hopeless for the
// N = 10^5..10^6 regimes of the large-N experiments. This layer computes the
// spectral radius -- the dominant eigenvalue, which is all the stability
// test (section 2.4.3, section 3.3, Theorem 4) needs -- from nothing but
// matrix-vector products y = A x supplied by a LinearOperator:
//
//   1. Power iteration with a signed Rayleigh quotient. Cost O(N) memory and
//      one operator application per step. Converges whenever the dominant
//      eigenvalue is real and separated. The stage judges from its own
//      progress whether it can finish: it measures the residual's
//      contraction rho over the last 8 steps and hands over to Arnoldi as
//      soon as rho >= 1 or residual * rho^(steps left) is still above the
//      tolerance, so its budget is an upper limit, not a sentence to serve.
//      A spectrum known to be real (the individual+FairShare Jacobian is
//      triangular by Theorem 4, docs/THEORY.md section 8) has no complex
//      dominant pair, so IterativeEigenOptions::real_spectrum = true lifts
//      the stage's 300-step cap to the full budget. Real is not separated:
//      a clustered real top still hands over early.
//   2. Arnoldi fallback for complex-dominant or clustered spectra: an
//      m-step Krylov factorization A V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T
//      whose small m x m Hessenberg matrix is solved with the existing dense
//      QR solver; explicit restarts with the dominant Ritz vector until the
//      Ritz residual |h_{m+1,m}| |e_m^T y| meets tolerance. A residual that
//      sets no new minimum over 8 restarts ends the stage unconverged,
//      whatever the restart budget. Cost O(m N) memory -- the reason the
//      power stage keeps every separated spectrum at N = 10^6.
//
// Only the dominant eigenvalue is computed (a complex-conjugate pair
// reports both members); asking for more throws. Subdominant eigenvalues
// come from the dense path or from a structural certificate
// (spectral/stability.hpp). Convergence criteria and tolerances are
// documented in docs/SCALING.md.
//
// Everything is deterministic: start vectors come from a fixed-seed integer
// mix, so repeated runs (and ffc_repro at any --jobs) reproduce bit-identical
// results. A warm solve allocates nothing, through either stage: buffers,
// the Arnoldi Hessenberg matrix and dense QR's work and result included,
// live in SparseEigenWorkspace, and results can be written into a
// caller-owned IterativeEigenResult.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace ffc::linalg {

/// Matrix-free linear operator y = A x over R^dim.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual std::size_t dim() const = 0;

  /// Computes y = A x. `y` is pre-sized to dim() by the solver; after the
  /// implementation's own buffers have warmed up it must not allocate (the
  /// solver's warm iterate is pinned allocation-free in tests/test_alloc).
  virtual void apply(const Vector& x, Vector& y) const = 0;
};

/// Adapter exposing a dense Matrix as a LinearOperator -- used by the
/// golden-equivalence tests that pit the iterative solver against the dense
/// QR path on the same matrix.
class MatrixOperator final : public LinearOperator {
 public:
  /// Keeps a reference; the matrix must outlive the operator.
  explicit MatrixOperator(const Matrix& a);

  std::size_t dim() const override { return a_->rows(); }
  void apply(const Vector& x, Vector& y) const override;

 private:
  const Matrix* a_;
};

/// The dense matrix of `op`: column j is op.apply(e_j), dim() applications.
/// The dense stability path forms DF this way from the Jacobian operator it
/// picks, so both paths see one source.
Matrix materialize(const LinearOperator& op);

/// Which stage produced an eigenvalue estimate.
enum class IterativeMethod {
  Power,
  Arnoldi,
};

struct IterativeEigenOptions {
  /// Relative residual target: an estimate (lambda, v) is accepted when
  /// ||A v - lambda v|| <= tolerance * max(|lambda|, ||A||_est).
  double tolerance = 1e-10;
  /// Upper limit on power steps when real_spectrum is set,
  /// min(300, power_iterations) otherwise. The stage hands over to Arnoldi
  /// earlier once its residual's contraction shows it cannot finish within
  /// the limit. 0 goes straight to Arnoldi.
  std::size_t power_iterations = 2000;
  /// Krylov subspace dimension m of the Arnoldi fallback (memory O(m N)),
  /// capped at the operator's dimension. Must be >= 1: the solver throws
  /// std::invalid_argument on 0.
  std::size_t arnoldi_subspace = 48;
  /// Maximum explicit Arnoldi restarts: 0 runs one cycle,
  /// and SIZE_MAX restarts until convergence or stagnation (no new minimum
  /// of the Ritz residual over 8 restarts).
  std::size_t arnoldi_restarts = 60;
  /// Structure hint: the operator's spectrum is known to be real (e.g. the
  /// individual+FairShare Jacobian, lower triangular under the sort-by-rate
  /// permutation per Theorem 4 -- docs/THEORY.md section 8). Lifts the
  /// power stage's 300-step cap, so a separated real spectrum never needs
  /// the O(m N) Arnoldi basis.
  bool real_spectrum = false;
  /// Seed of the deterministic start-vector mix.
  std::uint64_t start_seed = 0x8a5cd789635d2dffULL;
};

/// Reusable buffers for iterative eigenvalue solves. Grows to the operator's
/// dimension (and, if Arnoldi engages, to (m+1) basis vectors) on first use,
/// then stays put.
struct SparseEigenWorkspace {
  Vector v;        ///< current iterate
  Vector w;        ///< operator application target
  Vector restart;  ///< Arnoldi restart vector
  std::vector<Vector> basis;     ///< Arnoldi basis V (m+1 vectors)
  Matrix hess;                   ///< Arnoldi Hessenberg ((m+1) x m)
  Matrix small;                  ///< leading block handed to dense QR
  EigenWorkspace small_ws;       ///< dense QR's buffers
  EigenResult small_eigen;       ///< dense QR's Ritz values
  std::vector<std::complex<double>> cmat;  ///< small complex solver scratch
  std::vector<std::complex<double>> cvec;  ///< Ritz vector
  std::vector<std::complex<double>> crhs;  ///< inverse-iteration rhs
};

struct IterativeEigenResult {
  /// The dominant eigenvalue, or its best estimate if unconverged; empty
  /// for count = 0 or dim() = 0. A complex-conjugate pair found by Arnoldi
  /// contributes both members.
  std::vector<std::complex<double>> eigenvalues;
  /// |eigenvalues[0]| -- the spectral radius once `count` is 1.
  double spectral_radius = 0.0;
  /// True iff the eigenvalue met the residual tolerance (and for count 0).
  bool converged = false;
  /// Relative residual of the accepted (or attempted) eigenvalue.
  double residual = 0.0;
  /// Total operator applications across both stages.
  std::size_t applications = 0;
  /// Stage that produced the eigenvalue.
  IterativeMethod method = IterativeMethod::Power;
};

/// Computes the dominant eigenvalue of `op` by power iteration with Arnoldi
/// fallback, writing into `out` (buffers reused across calls: a warm solve
/// the power stage answers allocates nothing). `count` is 1, or 0 for an
/// empty, converged result; any larger count throws std::invalid_argument.
void iterative_eigenvalues_into(const LinearOperator& op, std::size_t count,
                                const IterativeEigenOptions& opts,
                                SparseEigenWorkspace& ws,
                                IterativeEigenResult& out);

/// Allocating convenience wrapper.
IterativeEigenResult iterative_eigenvalues(
    const LinearOperator& op, std::size_t count,
    const IterativeEigenOptions& opts = {});

}  // namespace ffc::linalg
