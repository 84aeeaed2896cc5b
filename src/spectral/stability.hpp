// The stability front end: is the spectral radius of DF at this point below
// 1, ignoring unit-magnitude manifold modes (§2.4.3, §3.3, Theorem 4)? One
// Jacobian operator serves both solvers: the closed-form
// AnalyticJacobianOperator whenever every model layer has a derivative,
// else the central-difference ModelJacobianOperator. The solver is picked
// by problem size:
//
//   * N <  kDenseThreshold: materialize DF from the operator (N
//     applications to e_j) and run the Hessenberg+QR dense solver. Exact
//     full spectrum, plus the diagonal DF_ii for the paper's *unilateral*
//     stability (|DF_ii| < 1) next to the *systemic* verdict.
//   * N >= kDenseThreshold: the dominant eigenvalue by power iteration over
//     the matrix-free Jacobian-vector operator, falling back to Arnoldi for
//     complex-dominant or clustered spectra (linalg/sparse_eigen.hpp). O(N)
//     memory. One solve: a unit dominant mode leaves the reduced
//     (non-manifold) radius unresolved.
//
// For individual feedback + FairShare service the map's Jacobian is lower
// triangular under the sort-by-rate permutation (Theorem 4), so its spectrum
// is real and the O(N)-memory power stage may run its full budget; the
// dispatcher detects that combination and sets the solver's real_spectrum
// hint automatically (docs/THEORY.md section 8, docs/SCALING.md). A
// clustered real top still goes to Arnoldi, as soon as the power stage sees
// it cannot converge.
//
// The paper's symmetric bottleneck (section 3.3: one shared path, one
// adjuster, tied rates) skips the eigensolver on the iterative analytic
// path: a structural check proves DF = aI + b 11^T, whose spectrum two
// operator applications give exactly (the exchangeable certificate,
// SpectralReport::Path::Exchangeable). It resolves the reduced radius
// behind the unit manifold modes as well.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "core/model.hpp"
#include "linalg/sparse_eigen.hpp"
#include "spectral/operator.hpp"

namespace ffc::spectral {

/// Method::Auto switches to the iterative path at this connection count.
/// Retuned from 512 to 128 for the analytic JVP operator: the iterative
/// solve costs O(N log N) per application instead of two full model
/// evaluations, and overtakes the dense path (N operator applications to
/// materialize DF + O(N^3) eigensolve) at N = 128 on the reference host;
/// see docs/SCALING.md "Dense/iterative crossover" for the measured table.
inline constexpr std::size_t kDenseThreshold = 128;

struct SpectralOptions {
  enum class Method {
    Auto,       ///< dense below kDenseThreshold, iterative at or above
    Dense,      ///< always materialize DF and run QR
    Iterative,  ///< always matrix-free
  };
  Method method = Method::Auto;
  /// Eigenvalues whose magnitude is within this of 1 count as steady-state
  /// manifold modes.
  double manifold_tolerance = 1e-6;
  /// How many unit modes the exchangeable certificate may go past while
  /// reading off the reduced (non-manifold) radius behind them. Aggregate
  /// feedback puts an (N - 1)-dimensional manifold at exactly 1 on the
  /// symmetric bottleneck, so the sequence is capped; if the cap is
  /// exhausted the report flags reduced_resolved = false instead of
  /// guessing. The eigensolver paths compute the dominant eigenvalue only
  /// and ignore it.
  std::size_t max_unit_deflations = 4;
  /// Finite-difference step control for the operator both paths use when a
  /// model layer has no closed-form derivative
  /// (AnalyticJacobianOperator::supported is false). Both values must be
  /// finite and > 0 on every path.
  core::JvpOptions jvp;
  /// Solver budgets and tolerance. The default tolerance sits at the
  /// finite-difference noise floor of the matrix-free operator (~1e-7
  /// relative with the default jvp step): asking the eigensolver for more
  /// digits than the operator carries stalls the power stage and falls
  /// through to Arnoldi on noise (docs/SCALING.md). Callers
  /// supplying an exact operator can tighten this back to 1e-10.
  linalg::IterativeEigenOptions iterative{.tolerance = 1e-7};
};

struct SpectralReport {
  /// Which solver answered.
  enum class Path {
    Dense,         ///< materialized DF + dense QR: the full spectrum
    Exchangeable,  ///< the exchangeable certificate (iterative analytic
                   ///< path only): a smooth point where every connection
                   ///< shares connection 0's path, adjuster object and rate
                   ///< bits, so DF = aI + b 11^T and the eigenvalue sequence
                   ///< comes from two operator applications instead of the
                   ///< eigensolver (docs/THEORY.md section 8)
    Triangular,    ///< iterative eigensolver with the real-spectrum hint:
                   ///< Theorem-4 structure (individual + FairShare) detected
    Eigensolver,   ///< iterative eigensolver, no structural hint
  };
  Path path = Path::Dense;
  double spectral_radius = 0.0;
  /// converged, spectral_radius < 1 and no unit mode: a mode within
  /// manifold_tolerance of the unit circle is not strictly inside it,
  /// whichever side roundoff puts it on.
  bool systemically_stable = false;
  /// Spectral radius over non-unit-magnitude eigenvalues, when resolved.
  double reduced_spectral_radius = 0.0;
  bool reduced_resolved = false;
  bool stable_modulo_manifold = false;  ///< meaningful iff reduced_resolved
  std::size_t unit_modes_deflated = 0;
  /// Eigenvalues actually computed: the full spectrum on the dense path
  /// (only the deflated ones if QR did not converge), the dominant
  /// eigenvalue on the eigensolver paths (both members of a complex pair),
  /// and the certificate's sequence on the exchangeable path.
  std::vector<std::complex<double>> eigenvalues;
  /// DF_ii, read off the materialized DF: filled on the dense path only
  /// (empty on the iterative paths, which never form DF).
  std::vector<double> diagonal;
  /// Every |DF_ii| < 1 (§2.4.3): each source, holding the others fixed,
  /// damps its own deviations. Meaningful on the dense path only; false on
  /// the iterative paths.
  bool unilaterally_stable = false;
  bool converged = false;
  /// The solve ran on the closed-form AnalyticJacobianOperator, on either
  /// path.
  bool analytic_jvp = false;
  /// Model evaluations spent: analytic, 1 (the base evaluation only); FD,
  /// the base evaluation plus 2 per operator application (dense: 2N + 1).
  std::size_t model_evaluations = 0;
  /// Operator applications spent: N on the dense path (materializing DF), 2
  /// on the exchangeable certificate, and the one eigensolve's count on the
  /// other iterative paths.
  std::size_t applications = 0;
};

/// Spectral stability of `model` at `rates` with size-dispatched solvers.
/// Throws std::invalid_argument on a malformed rate vector, or on a NaN,
/// infinite or negative manifold_tolerance or iterative.tolerance (the
/// validation happens once, at this boundary).
SpectralReport spectral_stability(const core::FlowControlModel& model,
                                  const std::vector<double>& rates,
                                  const SpectralOptions& options = {});

}  // namespace ffc::spectral
