// E6 -- Theorem 4: with TSI individual feedback and Fair Share service, the
// stability matrix DF is triangular under the sort-by-rate order, so its
// eigenvalues are its diagonal entries and unilateral stability implies
// systemic stability. FIFO service destroys the triangularity; aggregate
// feedback provides the outright counterexample (see E4).
//
//   (1) Structure: DF triangularity and eigenvalue = diagonal checks for
//       FS vs FIFO on a gateway with distinct rates.
//   (2) Sweep: random networks x random eta; whenever the FS system is
//       unilaterally stable it must be systemically stable.
//
// Claims (exit code 0 iff all pass): the structural checks and the sweep
// both hold.
#include <cmath>
#include <memory>

#include "core/ffc.hpp"
#include "linalg/sparse_eigen.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"
#include "spectral/analytic.hpp"
#include "spectral/stability.hpp"
#include "stats/rng.hpp"

namespace ffc::repro {

namespace {

using namespace ffc;
using core::FeedbackStyle;
using core::FlowControlModel;
using report::fmt;
using report::fmt_bool;
using report::TextTable;

FlowControlModel make(const network::Topology& topo,
                      std::shared_ptr<const queueing::ServiceDiscipline> d,
                      double eta) {
  return FlowControlModel(topo, std::move(d),
                          std::make_shared<core::RationalSignal>(),
                          FeedbackStyle::Individual,
                          std::make_shared<core::AdditiveTsi>(eta, 0.5));
}

}  // namespace

void run_e6(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E6: Theorem 4 -- Fair Share makes unilateral stability "
         "systemic ==\n\n";

  // ---- (1) structure -------------------------------------------------------
  const auto single = network::single_bottleneck(4, 1.0);
  const std::vector<double> probe{0.04, 0.09, 0.16, 0.21};
  TextTable structure({"discipline", "DF triangular (rate order)?",
                       "spectral radius", "max |diag|", "eigs = diag?"});
  structure.set_title(
      "Individual feedback, 4 connections with distinct rates");
  bool fs_triangular = false;
  bool fifo_triangular = true;
  double fs_eig_diag_gap = 1e300;
  // The full dense spectrum of the exact (analytic) DF.
  spectral::SpectralOptions dense;
  dense.method = spectral::SpectralOptions::Method::Dense;
  for (auto disc : {std::shared_ptr<const queueing::ServiceDiscipline>(
                        std::make_shared<queueing::FairShare>()),
                    std::shared_ptr<const queueing::ServiceDiscipline>(
                        std::make_shared<queueing::Fifo>())}) {
    auto model = make(single, disc, 0.3);
    const auto report = spectral::spectral_stability(model, probe, dense);
    const bool triangular = core::is_triangular_under_rate_order(
        linalg::materialize(spectral::AnalyticJacobianOperator(model, probe)),
        probe, 1e-5);
    double max_diag = 0.0;
    for (double d : report.diagonal) {
      max_diag = std::max(max_diag, std::fabs(d));
    }
    const bool eig_is_diag =
        std::fabs(report.spectral_radius - max_diag) < 1e-4;
    const bool is_fs = disc->name() == std::string_view("FairShare");
    if (is_fs) {
      fs_triangular = triangular;
      fs_eig_diag_gap = std::fabs(report.spectral_radius - max_diag);
    } else {
      fifo_triangular = triangular;
    }
    structure.add_row({std::string(disc->name()), fmt_bool(triangular),
                       fmt(report.spectral_radius, 4), fmt(max_diag, 4),
                       fmt_bool(eig_is_diag)});
  }
  structure.print(out);

  // ---- (2) sweep ------------------------------------------------------------
  stats::Xoshiro256 rng(4040);
  TextTable sweep({"trial", "net", "eta", "unilateral?",
                   "returns after perturbation?", "Thm4 holds?"});
  sweep.set_title("\nRandom networks x random eta, Fair Share individual "
                  "feedback,\nanalyzed at the converged steady state "
                  "(one-sided derivatives at the tie kinks)");
  int analyzed = 0, implications = 0;
  for (int trial = 0; trial < 14; ++trial) {
    network::RandomTopologyParams params;
    params.num_gateways = 2 + rng.uniform_index(3);
    params.num_connections = 3 + rng.uniform_index(4);
    const auto topo = network::random_topology(rng, params);
    const double eta = rng.uniform(0.05, 0.8);
    auto model = make(topo, std::make_shared<queueing::FairShare>(), eta);
    core::FixedPointOptions opts;
    opts.damping = 0.3;
    opts.max_iterations = 120000;
    const auto ss =
        core::solve_fixed_point(model, core::fair_steady_state(model), opts);
    if (!ss.converged) continue;
    ++analyzed;
    // Steady states of individual feedback are fair, so rates TIE at shared
    // bottlenecks -- exactly the MAX/MIN kinks the paper's discontinuity
    // discussion covers. Central differences average across the kink and
    // produce a meaningless matrix there; unilateral stability must examine
    // BOTH one-sided branch multipliers (the downward branch carries the
    // strong self-coupling dC_i/dr_i ~ N g'/mu). Systemic stability itself
    // is checked dynamically: perturb and require return.
    const auto uni = core::unilateral_stability(model, ss.rates);

    // The paper's criterion is LINEAR stability: small deviations must
    // dissipate. Large kicks can escape the nonlinear basin into a
    // truncation-driven limit cycle (g'(rho) explodes near overload), which
    // says nothing about Theorem 4 -- so perturb by only 0.5%.
    bool returns = true;
    stats::Xoshiro256 perturb_rng(static_cast<std::uint64_t>(trial) + 1);
    for (int probe_i = 0; probe_i < 3 && returns; ++probe_i) {
      std::vector<double> r0 = ss.rates;
      for (double& x : r0) {
        x = std::max(0.0, x * (1.0 + perturb_rng.uniform(-0.005, 0.005)));
      }
      const auto orbit = core::run_dynamics(model, r0);
      returns = orbit.kind == core::OrbitKind::Converged;
      for (std::size_t i = 0; i < r0.size() && returns; ++i) {
        returns = std::fabs(orbit.final_state[i] - ss.rates[i]) < 1e-5;
      }
    }
    const bool implication_holds = !uni.stable || returns;
    implications += implication_holds;
    sweep.add_row({std::to_string(trial), topo.summary(), fmt(eta, 2),
                   fmt_bool(uni.stable), fmt_bool(returns),
                   fmt_bool(implication_holds)});
  }
  sweep.print(out);
  out << "\nimplication (unilateral => systemic) held in " << implications
      << " / " << analyzed << " analyzed steady states\n";

  ctx.claims.check_true(
      {"E6", "fair_share_triangular"},
      "Under Fair Share, DF is triangular in the sort-by-rate order "
      "(Theorem 4's structural core)",
      fs_triangular);
  ctx.claims.check_true(
      {"E6", "fifo_not_triangular"},
      "FIFO destroys the triangularity of DF",
      !fifo_triangular);
  ctx.claims.check_at_most(
      {"E6", "fair_share_eigs_equal_diag"},
      "Fair Share's spectral radius equals its largest diagonal entry "
      "(eigenvalues are the diagonal)",
      fs_eig_diag_gap, 1e-4);
  ctx.claims.check_true(
      {"E6", "implication_holds"},
      "Unilateral stability implied systemic stability at every analyzed "
      "Fair Share steady state (Theorem 4)",
      implications == analyzed);
  ctx.claims.check_at_least(
      {"E6", "analyzed_floor"},
      "At least 6 of 14 random steady states converged and were analyzed "
      "(sample-size floor)",
      static_cast<double>(analyzed), 6.0);

  out << "\nFor contrast, aggregate feedback violates the implication "
         "-- run ffc_repro --only E4.\n";
  out << "\nTheorem 4 reproduced: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
