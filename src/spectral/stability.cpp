#include "spectral/stability.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/stability.hpp"
#include "linalg/eigen.hpp"
#include "queueing/fair_share.hpp"
#include "spectral/analytic.hpp"

namespace ffc::spectral {

namespace {

bool near_unit(double magnitude, double tol) {
  return std::fabs(magnitude - 1.0) <= tol;
}

SpectralReport dense_path(const core::FlowControlModel& model,
                          const std::vector<double>& rates,
                          const SpectralOptions& options) {
  SpectralReport report;
  core::JacobianOptions jac;
  jac.relative_step = options.jvp.relative_step;
  jac.step_floor = options.jvp.step_floor;
  const linalg::Matrix df = core::jacobian(model, rates, jac);
  report.model_evaluations = 2 * rates.size();
  const linalg::EigenResult eig = linalg::eigenvalues(df);
  report.eigenvalues = eig.values;
  report.converged = eig.converged;
  for (const auto& lambda : eig.values) {
    const double mag = std::abs(lambda);
    report.spectral_radius = std::max(report.spectral_radius, mag);
    if (near_unit(mag, options.manifold_tolerance)) {
      ++report.unit_modes_deflated;
    } else {
      report.reduced_spectral_radius =
          std::max(report.reduced_spectral_radius, mag);
    }
  }
  report.reduced_resolved = true;
  report.systemically_stable = report.spectral_radius < 1.0;
  report.stable_modulo_manifold = report.reduced_spectral_radius < 1.0;
  return report;
}

SpectralReport iterative_path(const core::FlowControlModel& model,
                              const std::vector<double>& rates,
                              const SpectralOptions& options,
                              bool triangular) {
  SpectralReport report;
  report.used_iterative = true;
  report.triangular_hint = triangular;

  // Operator selection: the closed-form analytic JVP whenever every model
  // layer carries a derivative (Auto), else the central-difference operator.
  // The analytic operator costs 1 model evaluation total (the base) and has
  // no step-size noise floor; the FD operator pays 2 evaluations per apply.
  const bool analytic =
      options.jvp_mode == SpectralOptions::Jvp::Analytic ||
      (options.jvp_mode == SpectralOptions::Jvp::Auto &&
       AnalyticJacobianOperator::supported(model));
  report.analytic_jvp = analytic;
  std::optional<AnalyticJacobianOperator> analytic_op;
  std::optional<ModelJacobianOperator> fd_op;
  const linalg::LinearOperator* op;
  if (analytic) {
    analytic_op.emplace(model, rates);
    op = &*analytic_op;
  } else {
    fd_op.emplace(model, rates, options.jvp);
    op = &*fd_op;
  }
  linalg::IterativeEigenOptions eig_opts = options.iterative;
  // Theorem 4 (docs/THEORY.md section 8): individual + FairShare makes DF
  // lower triangular under the sort-by-rate permutation, hence a real
  // spectrum -- the power-only path applies and the O(mN) Arnoldi basis is
  // not needed.
  eig_opts.real_spectrum = eig_opts.real_spectrum || triangular;

  linalg::SparseEigenWorkspace ws;
  linalg::IterativeEigenResult result;
  // Deflate past unit-magnitude modes (the aggregate manifold) until a
  // non-unit eigenvalue decides stability-modulo-manifold, up to the cap.
  const std::size_t max_count = 1 + options.max_unit_deflations;
  std::size_t count = 1;
  while (true) {
    linalg::iterative_eigenvalues_into(*op, count, eig_opts, ws, result);
    report.converged = result.converged;
    report.eigenvalues = result.eigenvalues;
    if (!result.converged) break;
    bool all_unit = true;
    for (const auto& lambda : result.eigenvalues) {
      if (!near_unit(std::abs(lambda), options.manifold_tolerance)) {
        all_unit = false;
      }
    }
    if (!all_unit || result.eigenvalues.size() >= op->dim() ||
        count >= max_count) {
      break;
    }
    // Every eigenvalue found so far sits on the unit circle: deflate one
    // more and re-run (the workspace re-solves from scratch but the early
    // eigenvalues converge immediately along the same deterministic path).
    ++count;
  }

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
  report.systemically_stable =
      report.converged && report.spectral_radius < 1.0;
  report.stable_modulo_manifold =
      report.reduced_resolved && report.reduced_spectral_radius < 1.0;
  report.model_evaluations = analytic ? 1 : fd_op->evaluations();
  return report;
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
  // operator Auto picks.
  core::validate_step_options(options.jvp.relative_step,
                              options.jvp.step_floor, "spectral_stability");
  const bool triangular =
      model.style() == core::FeedbackStyle::Individual &&
      dynamic_cast<const queueing::FairShare*>(&model.discipline()) != nullptr;

  bool iterative = false;
  switch (options.method) {
    case SpectralOptions::Method::Dense:
      iterative = false;
      break;
    case SpectralOptions::Method::Iterative:
      iterative = true;
      break;
    case SpectralOptions::Method::Auto:
      iterative = rates.size() >= options.dense_threshold;
      break;
  }
  SpectralReport report = iterative
                              ? iterative_path(model, rates, options, triangular)
                              : dense_path(model, rates, options);
  report.triangular_hint = triangular;
  return report;
}

}  // namespace ffc::spectral
