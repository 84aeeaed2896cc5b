// E4 -- §3.3's instability example: for aggregate feedback with
// B(C) = C/(1+C) and f = eta (beta - b) at a single gateway (mu = 1), the
// stability matrix is DF_ij = delta_ij - eta, whose eigenvalues are
//   1 - eta N   (once)   and   1 (N-1 times, along the steady-state
//                               manifold).
// Unilateral stability needs |1 - eta| < 1 (any eta < 2); systemic stability
// needs |1 - eta N| < 1, i.e. N < 2/eta. So for fixed eta < 2 the system is
// unilaterally stable at every N but systemically unstable once N > 2/eta --
// unilateral stability does NOT imply systemic stability.
//
// The table sweeps N at eta = 0.5 (threshold N* = 4), comparing the
// predicted leading eigenvalue with the numerically computed spectrum and
// with the observed dynamics from a slightly perturbed fair point.
//
// Claims (exit code 0 iff all pass): prediction, spectrum, and dynamics
// agree at every N.
#include <cmath>
#include <memory>

#include "core/ffc.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"
#include "spectral/stability.hpp"

namespace ffc::repro {

namespace {

using namespace ffc;
using core::FeedbackStyle;
using core::FlowControlModel;
using core::OrbitKind;
using report::fmt;
using report::fmt_bool;
using report::TextTable;

}  // namespace

void run_e4(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E4: aggregate-feedback instability (unilateral != "
         "systemic) ==\n\n";
  const double eta = 0.5;
  const double beta = 0.5;

  TextTable table({"N", "DF_ii", "predicted 1-eta*N", "computed lead eig",
                   "unilateral?", "systemic?", "dynamics"});
  table.set_title("B(C)=C/(1+C), f = eta(beta - b), eta = 0.5, mu = 1\n"
                  "systemic stability threshold N* = 2/eta = 4");

  double worst_spectrum_error = 0.0;
  bool all_unilateral = true;
  bool dynamics_agree = true;
  bool reduced_agrees = true;
  // The full dense spectrum of the exact (analytic) DF.
  spectral::SpectralOptions dense;
  dense.method = spectral::SpectralOptions::Method::Dense;
  // N = 4 sits exactly on the threshold (eigenvalue -1, marginal) and is
  // omitted; linear analysis cannot classify it.
  for (std::size_t n : {2u, 3u, 5u, 6u, 8u, 12u, 16u}) {
    FlowControlModel model(network::single_bottleneck(n, 1.0),
                           std::make_shared<queueing::Fifo>(),
                           std::make_shared<core::RationalSignal>(),
                           FeedbackStyle::Aggregate,
                           std::make_shared<core::AdditiveTsi>(eta, beta));
    const std::vector<double> fair(n, beta / static_cast<double>(n));
    const auto report = spectral::spectral_stability(model, fair, dense);

    const double predicted = 1.0 - eta * static_cast<double>(n);
    // The computed leading eigenvalue should be max(|1 - eta N|, 1) -- the
    // manifold contributes N-1 eigenvalues at exactly 1.
    const double expected_radius = std::max(std::fabs(predicted), 1.0);
    worst_spectrum_error =
        std::max(worst_spectrum_error,
                 std::fabs(report.spectral_radius - expected_radius));
    all_unilateral = all_unilateral && report.unilaterally_stable;

    // Observe the actual dynamics from a perturbed fair point. Perturbations
    // ALONG the manifold persist (eigenvalue 1), so we look only at whether
    // the total rate returns to rho_ss (the transverse direction).
    std::vector<double> r0 = fair;
    r0[0] += 0.02;
    const auto orbit = core::run_dynamics(model, r0);
    const bool transverse_stable = std::fabs(predicted) < 1.0;
    const bool settled = orbit.kind == OrbitKind::Converged;
    dynamics_agree = dynamics_agree && (settled == transverse_stable);
    reduced_agrees =
        reduced_agrees && (report.stable_modulo_manifold == transverse_stable);

    table.add_row(
        {std::to_string(n), fmt(report.diagonal[0], 3), fmt(predicted, 3),
         fmt(report.reduced_spectral_radius *
                 (predicted < 0 ? -1.0 : 1.0), 3),
         fmt_bool(report.unilaterally_stable),
         fmt_bool(report.stable_modulo_manifold),
         settled ? "settles" : (orbit.period == 2 ? "period-2 oscillation"
                                                  : "does not settle")});
  }
  table.print(out);

  out << "\nReading: every row is unilaterally stable (|DF_ii| = |1-eta| = "
         "0.5 < 1),\nbut past N = 4 the leading eigenvalue 1 - eta*N leaves "
         "the unit circle and\nthe synchronous dynamics oscillate instead of "
         "settling -- the paper's\ncounterexample to 'unilateral implies "
         "systemic' for aggregate feedback.\n";

  ctx.claims.check_at_most(
      {"E4", "spectral_radius_error"},
      "Computed leading eigenvalue matches the prediction max(|1 - eta N|, 1) "
      "at every N",
      worst_spectrum_error, 1e-4);
  ctx.claims.check_true(
      {"E4", "unilaterally_stable_at_every_n"},
      "Every N is unilaterally stable (|1 - eta| = 0.5 < 1)",
      all_unilateral);
  ctx.claims.check_true(
      {"E4", "dynamics_match_prediction"},
      "The perturbed dynamics settle exactly when |1 - eta N| < 1 -- past "
      "N* = 4 they oscillate (the counterexample)",
      dynamics_agree);
  ctx.claims.check_true(
      {"E4", "reduced_analysis_matches"},
      "stable_modulo_manifold agrees with the transverse prediction at "
      "every N",
      reduced_agrees);

  out << "\nE4 reproduced: " << (ctx.claims.all_passed() ? "YES" : "NO")
      << "\n";
}

}  // namespace ffc::repro
