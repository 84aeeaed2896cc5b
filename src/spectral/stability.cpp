#include "spectral/stability.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "linalg/eigen.hpp"
#include "network/csr.hpp"
#include "queueing/fair_share.hpp"
#include "spectral/analytic.hpp"

namespace ffc::spectral {

namespace {

bool near_unit(double magnitude, double tol) {
  return std::fabs(magnitude - 1.0) <= tol;
}

/// Fills the radii, counts and verdicts from report.eigenvalues and
/// report.converged. Nothing is trusted unless the solver converged: an
/// unconverged QR or eigensolve holds no verdict. A converged full spectrum
/// (the dense path) resolves the reduced radius even when every eigenvalue
/// is a unit mode; a partial one (the dominant eigenvalue, or the
/// certificate's sequence) resolves it only with a non-unit eigenvalue. A
/// unit mode is on the unit circle to within the tolerance, so it is never
/// systemically stable: the verdict must not depend on which side of 1
/// roundoff puts it.
void classify(const SpectralOptions& options, bool full_spectrum,
              SpectralReport& report) {
  for (const auto& lambda : report.eigenvalues) {
    const double mag = std::abs(lambda);
    report.spectral_radius = std::max(report.spectral_radius, mag);
    if (near_unit(mag, options.manifold_tolerance)) {
      ++report.unit_modes_deflated;
    } else if (report.converged) {
      report.reduced_spectral_radius =
          std::max(report.reduced_spectral_radius, mag);
      report.reduced_resolved = true;
    }
  }
  report.reduced_resolved =
      report.reduced_resolved || (full_spectrum && report.converged);
  report.systemically_stable = report.converged &&
                               report.unit_modes_deflated == 0 &&
                               report.spectral_radius < 1.0;
  report.stable_modulo_manifold =
      report.reduced_resolved && report.reduced_spectral_radius < 1.0;
}

/// The structural precondition of the exchangeable certificate (docs/
/// THEORY.md section 8): a smooth analytic operator, and every connection
/// with connection 0's path, adjuster object and rate bits. Relabelling
/// the connections then leaves the model and the point unchanged, so DF
/// commutes with every permutation. Nothing here compares a computed value.
bool exchangeable(const core::FlowControlModel& model,
                  const std::vector<double>& rates,
                  const AnalyticJacobianOperator& op) {
  if (!op.smooth() || rates.empty()) return false;
  const network::CsrIncidence& csr = model.topology().incidence();
  const auto path0 = csr.path(0);
  const core::RateAdjustment* adjuster0 = &model.adjuster(0);
  const auto rate0 = std::bit_cast<std::uint64_t>(rates[0]);
  for (network::ConnectionId i = 1; i < rates.size(); ++i) {
    if (&model.adjuster(i) != adjuster0 ||
        std::bit_cast<std::uint64_t>(rates[i]) != rate0 ||
        !std::ranges::equal(csr.path(i), path0)) {
      return false;
    }
  }
  return true;
}

/// The eigenvalue sequence of DF = aI + b 11^T, read off its known
/// spectrum: the manifold eigenvalue a (N - 1 times, on 1-perp) and the
/// transverse a + N b (on 1). Two applications: a = (DF e_0)_0 -
/// (DF e_0)_1 and a + N b = mean(DF 1). The dominant of the two comes
/// first: the eigensolver's answer on the same operator. The sequence stops
/// at the first non-unit eigenvalue, and goes past at most
/// max_unit_deflations unit ones.
void exchangeable_spectrum(const linalg::LinearOperator& op,
                           const SpectralOptions& options,
                           SpectralReport& report) {
  const std::size_t n = op.dim();
  linalg::Vector x(n, 0.0);
  linalg::Vector y(n);
  x[0] = 1.0;
  op.apply(x, y);
  const double manifold = n > 1 ? y[0] - y[1] : 0.0;
  std::fill(x.begin(), x.end(), 1.0);
  op.apply(x, y);
  const double transverse =
      std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
  const bool transverse_first =
      n == 1 || std::fabs(transverse) > std::fabs(manifold);
  report.applications = 2;
  report.eigenvalues.clear();
  for (std::size_t k = 0; k < n && k <= options.max_unit_deflations; ++k) {
    const bool is_transverse = transverse_first ? k == 0 : k == 1;
    const double lambda = is_transverse ? transverse : manifold;
    report.eigenvalues.emplace_back(lambda, 0.0);
    if (!near_unit(std::fabs(lambda), options.manifold_tolerance)) break;
  }
  report.converged = true;
}

void dense_path(const linalg::LinearOperator& op,
                const SpectralOptions& options, SpectralReport& report) {
  const linalg::Matrix df = linalg::materialize(op);
  const std::size_t n = df.rows();
  report.applications = n;
  report.diagonal.resize(n);
  report.unilaterally_stable = true;
  for (std::size_t i = 0; i < n; ++i) {
    report.diagonal[i] = df(i, i);
    if (std::fabs(df(i, i)) >= 1.0) report.unilaterally_stable = false;
  }
  const linalg::EigenResult eig = linalg::eigenvalues(df);
  report.eigenvalues = eig.values;
  report.converged = eig.converged;
  classify(options, /*full_spectrum=*/true, report);
}

void iterative_path(const core::FlowControlModel& model,
                    const linalg::LinearOperator& op,
                    const SpectralOptions& options, SpectralReport& report) {
  const bool triangular =
      model.style() == core::FeedbackStyle::Individual &&
      dynamic_cast<const queueing::FairShare*>(&model.discipline()) != nullptr;
  report.path = triangular ? SpectralReport::Path::Triangular
                           : SpectralReport::Path::Eigensolver;
  linalg::IterativeEigenOptions eig_opts = options.iterative;
  // Theorem 4 (docs/THEORY.md section 8): individual + FairShare makes DF
  // lower triangular under the sort-by-rate permutation, hence a real
  // spectrum -- the power stage may run its full budget, and the O(mN)
  // Arnoldi basis is needed only for a clustered top.
  eig_opts.real_spectrum = eig_opts.real_spectrum || triangular;

  // One solve: the dominant eigenvalue. A unit one leaves the reduced
  // radius unresolved (the certificate and the dense path resolve it).
  const linalg::IterativeEigenResult result =
      linalg::iterative_eigenvalues(op, 1, eig_opts);
  report.applications = result.applications;
  report.converged = result.converged;
  report.eigenvalues = result.eigenvalues;
  classify(options, /*full_spectrum=*/false, report);
}

}  // namespace

SpectralReport spectral_stability(const core::FlowControlModel& model,
                                  const std::vector<double>& rates,
                                  const SpectralOptions& options) {
  // A NaN tolerance fails every comparison, which would silently turn the
  // unit-circle test into "no manifold mode" and the verdict into "stable".
  for (const double tol :
       {options.manifold_tolerance, options.iterative.tolerance}) {
    if (!(tol >= 0.0) || !std::isfinite(tol)) {
      throw std::invalid_argument(
          "spectral_stability: tolerances must be finite and >= 0");
    }
  }
  // A zero or NaN step made the FD operator return y = 0 (radius 0,
  // "stable"); checked on every path so the options are valid whichever
  // operator is picked.
  options.jvp.validate("spectral_stability");
  const bool iterative =
      options.method == SpectralOptions::Method::Iterative ||
      (options.method == SpectralOptions::Method::Auto &&
       rates.size() >= kDenseThreshold);

  // Operator selection, once for both paths: the closed-form analytic JVP
  // whenever every model layer carries a derivative, else the
  // central-difference operator. The analytic operator costs 1 model
  // evaluation total (the base) and has no step-size noise floor; the FD
  // operator pays 2 evaluations per application.
  SpectralReport report;
  report.analytic_jvp = AnalyticJacobianOperator::supported(model);
  std::optional<AnalyticJacobianOperator> analytic_op;
  std::optional<ModelJacobianOperator> fd_op;
  const linalg::LinearOperator* op;
  if (report.analytic_jvp) {
    op = &analytic_op.emplace(model, rates);
  } else {
    op = &fd_op.emplace(model, rates, options.jvp);
  }
  if (!iterative) {
    dense_path(*op, options, report);
  } else if (analytic_op && exchangeable(model, rates, *analytic_op)) {
    report.path = SpectralReport::Path::Exchangeable;
    exchangeable_spectrum(*op, options, report);
    classify(options, /*full_spectrum=*/false, report);
  } else {
    iterative_path(model, *op, options, report);
  }
  report.model_evaluations = fd_op ? fd_op->evaluations() : 1;
  return report;
}

}  // namespace ffc::spectral
