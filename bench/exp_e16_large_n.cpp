// E16 -- sparse spectral stability at N = 10^5 .. 10^6.
//
// The dense stability pipeline (materialized DF + QR) is O(N^2) memory and
// O(N^3) time, capping experiments near N ~ 10^3. This experiment runs the
// paper's two sharpest large-population claims through the matrix-free
// engine (spectral::spectral_stability over the CSR/SoA model path,
// docs/SCALING.md) at N = 1e5 -- two orders of magnitude past the dense
// ceiling:
//
//   S2 (3.3): the chaos onset of symmetric aggregate feedback is
//       N-independent. With B(C) = (C/(1+C))^2, mu = N, and beta = 0.5 the
//       reduced recursion's eigenvalue is s = 1 - 2 eta sqrt(beta), so the
//       onset sits at eta* = 1/sqrt(beta) = sqrt(2) at EVERY N. We pin the
//       spectrum on both sides of the onset at N = 1e5: below (eta = 1.2)
//       the radius is exactly the unit sum-zero manifold; above (eta = 1.6)
//       the dominant eigenvalue is s = -1.2627...
//
//   T5 (3.4): the robustness boundary between FIFO and Fair Share persists
//       at N = 1e5. Fair Share satisfies Q_i <= r_i/(mu - N r_i) on both a
//       fair and a skewed allocation; FIFO violates it by the analytic
//       margin g(1/2)/(2N) - 1/(3N) = 1/(6N) ~ 1.667e-6 on the skewed one.
//
// A small-N cross-check feeds the SAME materialized Jacobian to both
// the dense QR solver and the iterative solver and pins agreement to 1e-8
// -- the golden bound the large-N numbers inherit their credibility from.
//
// The analytic Jacobian-vector operator (spectral/analytic.hpp) then pushes
// the same program one more decade, to N = 10^6: the S2 spectrum on both
// sides of the onset and the Theorem-5 margin are re-pinned at a million
// connections with ONE model evaluation per solve (Jvp::Auto resolves to the
// closed-form operator for these differentiable stacks), and two
// multi-gateway configurations -- a 4-hop parking lot with 10^5 cross
// connections and a 200-gateway random topology with 5x10^4 connections --
// are driven to their fair fixed points and certified spectrally stable.
//
// The timing gates are reported as booleans (thread CPU time < 10 s for the
// original N = 1e5 block, < 60 s for the whole experiment), never as
// measured numbers: wall-clock in a claim value would break the
// byte-identical REPRODUCTION.md contract (docs/DETERMINISM.md). The
// seconds go to ctx.err, which is never byte-compared.
#include <cmath>
#include <ctime>
#include <memory>
#include <vector>

#include "core/ffc.hpp"
#include "linalg/eigen.hpp"
#include "linalg/sparse_eigen.hpp"
#include "network/builders.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"
#include "spectral/analytic.hpp"
#include "spectral/stability.hpp"

namespace ffc::repro {

namespace {

using namespace ffc;
using core::FeedbackStyle;
using core::FlowControlModel;
using report::fmt;
using report::fmt_bool;
using report::fmt_sci;
using report::TextTable;

/// CPU time of the calling thread, in seconds. Used only for the <10s
/// boolean gate and the err-stream progress line.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

FlowControlModel s2_model(std::size_t n, double eta, double beta) {
  return FlowControlModel(network::single_bottleneck(n, double(n)),
                          std::make_shared<queueing::Fifo>(),
                          std::make_shared<core::QuadraticSignal>(),
                          FeedbackStyle::Aggregate,
                          std::make_shared<core::AdditiveTsi>(eta, beta));
}

}  // namespace

void run_e16(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E16: sparse spectral stability at N = 1e5 .. 1e6 ==\n\n";
  const std::size_t big_n = 100000;
  const double beta = 0.5;
  const double cpu_start = thread_cpu_seconds();

  // ---- S2: chaos onset persists at N = 1e5 -------------------------------
  out << "symmetric aggregate feedback, one gateway, mu = N, B(C) = "
         "(C/(1+C))^2, beta = 0.5\n"
      << "fixed point r_i = sqrt(beta); reduced eigenvalue s = 1 - 2 eta "
         "sqrt(beta), onset eta* = sqrt(2)\n\n";

  TextTable s2({"eta", "predicted |s|", "spectral radius", "reduced",
                "resolved?", "stable (mod manifold)?"});
  s2.set_title("S2 spectrum at N = 100000 (matrix-free iterative)");

  spectral::SpectralOptions sparse_opts;
  sparse_opts.method = spectral::SpectralOptions::Method::Iterative;

  // Below the onset: the only eigenvalues on or outside |s| = 0.697's disc
  // are the N-1 unit modes of the sum-zero manifold, so the radius -- not
  // the reduced radius -- carries the claim. max_unit_deflations = 0 stops
  // the certificate's sequence at the dominant unit mode, so the reduced
  // radius is left unresolved and the row prints "-".
  {
    const double eta = 1.2;
    auto model = s2_model(big_n, eta, beta);
    const std::vector<double> rates(big_n, std::sqrt(beta));
    spectral::SpectralOptions below_opts = sparse_opts;
    below_opts.max_unit_deflations = 0;
    const auto report = spectral::spectral_stability(model, rates, below_opts);
    const double s = 1.0 - 2.0 * eta * std::sqrt(beta);
    s2.add_row({fmt(eta, 1), fmt(std::fabs(s), 6),
                fmt(report.spectral_radius, 6),
                report.reduced_resolved ? fmt(report.reduced_spectral_radius, 6)
                                        : "-",
                fmt_bool(report.reduced_resolved),
                fmt_bool(report.stable_modulo_manifold)});
    ctx.claims.check_true(
        {"E16", "below_onset_converges_at_1e5"},
        "Below the onset (eta = 1.2) the iterative solver converges on the "
        "N = 1e5 Jacobian without densifying it",
        report.converged &&
            report.path != spectral::SpectralReport::Path::Dense);
    ctx.claims.check_close(
        {"E16", "below_onset_radius_is_manifold"},
        "Below the onset the spectral radius at N = 1e5 is exactly the unit "
        "sum-zero manifold (no eigenvalue escapes the unit disc)",
        report.spectral_radius, 1.0, 1e-6);
  }

  // Above the onset: the dominant eigenvalue is the reduced recursion's
  // s = 1 - 2 eta sqrt(beta) = -1.2627..., strictly outside the manifold,
  // so one power run resolves it directly.
  {
    const double eta = 1.6;
    auto model = s2_model(big_n, eta, beta);
    const std::vector<double> rates(big_n, std::sqrt(beta));
    const auto report = spectral::spectral_stability(model, rates, sparse_opts);
    const double s = 1.0 - 2.0 * eta * std::sqrt(beta);
    s2.add_row({fmt(eta, 1), fmt(std::fabs(s), 6),
                fmt(report.spectral_radius, 6),
                report.reduced_resolved ? fmt(report.reduced_spectral_radius, 6)
                                        : "-",
                fmt_bool(report.reduced_resolved),
                fmt_bool(report.stable_modulo_manifold)});
    ctx.claims.check_true(
        {"E16", "above_onset_converges_at_1e5"},
        "Above the onset (eta = 1.6) the iterative solver converges on the "
        "N = 1e5 Jacobian",
        report.converged &&
            report.path != spectral::SpectralReport::Path::Dense);
    ctx.claims.check_close(
        {"E16", "above_onset_radius_matches_prediction"},
        "Above the onset the dominant eigenvalue at N = 1e5 matches the "
        "N-independent prediction |1 - 2 eta sqrt(beta)| = 1.262742",
        report.spectral_radius, std::fabs(s), 1e-6);
    ctx.claims.check_true(
        {"E16", "above_onset_unstable_at_1e5"},
        "The S2 instability detected at small N persists at N = 1e5: the "
        "chaos onset eta* = sqrt(2) is N-independent",
        !report.stable_modulo_manifold && report.reduced_resolved);
  }
  s2.print(out);

  // ---- T5: robustness boundary persists at N = 1e5 -----------------------
  // Fair rates r_i = mu/(2N) = 0.5 and a skewed split (half at 0.25, half
  // at 0.75; same total load rho = 1/2). FIFO's shared queue g(1/2) = 1
  // charges the low-rate half Q_i = 0.25/(N/2 * ...) = 1/(2N) against a
  // bound of 1/(3N): the analytic violation is 1/(6N).
  const double n_d = double(big_n);
  std::vector<double> skewed(big_n);
  for (std::size_t i = 0; i < big_n; ++i) skewed[i] = i < big_n / 2 ? 0.25 : 0.75;
  const std::vector<double> fair(big_n, 0.5);
  queueing::FairShare fs;
  queueing::Fifo fifo;
  const double fs_fair = core::theorem5_violation(fs, fair, n_d);
  const double fs_skew = core::theorem5_violation(fs, skewed, n_d);
  const double fifo_skew = core::theorem5_violation(fifo, skewed, n_d);
  const double fifo_predicted = 1.0 / (6.0 * n_d);

  TextTable t5({"discipline", "allocation", "worst Q_i - r_i/(mu - N r_i)",
                "satisfies Thm 5?"});
  t5.set_title("\nTheorem-5 discipline condition at N = 100000, mu = N");
  t5.add_row({"FairShare", "fair (all 0.5)", fmt_sci(fs_fair, 3),
              fmt_bool(fs_fair <= 1e-12)});
  t5.add_row({"FairShare", "skewed (0.25 / 0.75)", fmt_sci(fs_skew, 3),
              fmt_bool(fs_skew <= 1e-12)});
  t5.add_row({"FIFO", "skewed (0.25 / 0.75)", fmt_sci(fifo_skew, 3),
              fmt_bool(fifo_skew <= 1e-12)});
  t5.print(out);

  ctx.claims.check_at_most(
      {"E16", "fair_share_robust_at_1e5"},
      "Fair Share satisfies the Theorem-5 bound at N = 1e5 on both the fair "
      "and the skewed allocation",
      std::max(fs_fair, fs_skew), 0.0, 1e-12);
  ctx.claims.check_close(
      {"E16", "fifo_violation_margin_at_1e5"},
      "FIFO violates the Theorem-5 bound at N = 1e5 by the analytic margin "
      "1/(6N)",
      fifo_skew, fifo_predicted, 1e-12);

  // ---- small-N golden cross-check ----------------------------------------
  // Same materialized analytic Jacobian, both eigensolvers: the iterative
  // radius must match dense QR to 1e-8 (the tests pin this up to N = 1024;
  // this claim keeps one instance in the generated artifacts).
  const std::size_t small_n = 256;
  auto cross_model =
      FlowControlModel(network::single_bottleneck(small_n, double(small_n)),
                       std::make_shared<queueing::FairShare>(),
                       std::make_shared<core::RationalSignal>(),
                       FeedbackStyle::Individual,
                       std::make_shared<core::AdditiveTsi>(0.4, beta));
  std::vector<double> cross_rates(small_n);
  for (std::size_t i = 0; i < small_n; ++i) {
    cross_rates[i] =
        0.45 * (1.0 + 0.3 * double(i) / double(small_n));
  }
  const linalg::Matrix df = linalg::materialize(
      spectral::AnalyticJacobianOperator(cross_model, cross_rates));
  const double dense_radius = linalg::spectral_radius(df);
  linalg::IterativeEigenOptions cross_opts;
  cross_opts.real_spectrum = true;  // Theorem 4: individual + FairShare
  const auto cross = linalg::iterative_eigenvalues(linalg::MatrixOperator(df),
                                                   1, cross_opts);

  TextTable golden({"N", "dense QR radius", "iterative radius", "|diff|"});
  golden.set_title("\nSparse-vs-dense golden cross-check (same Jacobian)");
  golden.add_row({std::to_string(small_n), fmt(dense_radius, 10),
                  fmt(cross.spectral_radius, 10),
                  fmt_sci(std::fabs(cross.spectral_radius - dense_radius), 2)});
  golden.print(out);
  ctx.claims.check_close(
      {"E16", "iterative_matches_dense_qr"},
      "On the same N = 256 Jacobian the iterative solver matches dense QR "
      "to 1e-8",
      cross.spectral_radius, dense_radius, 1e-8);

  // ---- timing gate (original 1e5 block) -----------------------------------
  const double cpu = thread_cpu_seconds() - cpu_start;
  ctx.err << "E16 thread CPU time (N = 1e5 block): " << cpu << " s\n";
  ctx.claims.check_true(
      {"E16", "sparse_path_under_10s_cpu"},
      "The whole N = 1e5 analysis (both S2 solves and three Theorem-5 "
      "evaluations) takes under 10 s of single-thread CPU time",
      cpu < 10.0);

  // ---- S2 at N = 1e6: the analytic JVP decade -----------------------------
  // Same program as the N = 1e5 S2 block, one decade up. At this size every
  // operator application matters: Jvp::Auto resolves to the closed-form
  // AnalyticJacobianOperator (FIFO + quadratic signal + aggregate feedback +
  // additive TSI are all differentiable), so each solve spends exactly ONE
  // model evaluation -- the base point -- and every application is a fused
  // O(N) pass (docs/THEORY.md section 8).
  const std::size_t mega_n = 1000000;
  out << "\nsame S2 program at N = 1000000 via the analytic Jacobian-vector "
         "operator\n";

  TextTable s2m({"eta", "predicted |s|", "spectral radius", "analytic JVP?",
                 "model evals"});
  s2m.set_title("S2 spectrum at N = 1000000 (matrix-free, analytic JVP)");
  {
    const double eta = 1.2;
    auto model = s2_model(mega_n, eta, beta);
    const std::vector<double> rates(mega_n, std::sqrt(beta));
    spectral::SpectralOptions below_opts = sparse_opts;
    below_opts.max_unit_deflations = 0;  // same 10^6-fold manifold reasoning
    const auto report = spectral::spectral_stability(model, rates, below_opts);
    s2m.add_row({fmt(eta, 1), "1.000000", fmt(report.spectral_radius, 6),
                 fmt_bool(report.analytic_jvp),
                 std::to_string(report.model_evaluations)});
    ctx.claims.check_true(
        {"E16", "below_onset_analytic_single_eval_at_1e6"},
        "Below the onset at N = 1e6 the solver runs on the analytic JVP "
        "operator and spends exactly one model evaluation",
        report.converged && report.analytic_jvp &&
            report.model_evaluations == 1);
    ctx.claims.check_close(
        {"E16", "below_onset_radius_is_manifold_at_1e6"},
        "Below the onset the spectral radius at N = 1e6 is exactly the unit "
        "sum-zero manifold (no eigenvalue escapes the unit disc)",
        report.spectral_radius, 1.0, 1e-6);
  }
  {
    const double eta = 1.6;
    auto model = s2_model(mega_n, eta, beta);
    const std::vector<double> rates(mega_n, std::sqrt(beta));
    const auto report = spectral::spectral_stability(model, rates, sparse_opts);
    const double s = 1.0 - 2.0 * eta * std::sqrt(beta);
    s2m.add_row({fmt(eta, 1), fmt(std::fabs(s), 6),
                 fmt(report.spectral_radius, 6), fmt_bool(report.analytic_jvp),
                 std::to_string(report.model_evaluations)});
    ctx.claims.check_true(
        {"E16", "above_onset_analytic_single_eval_at_1e6"},
        "Above the onset at N = 1e6 the solver runs on the analytic JVP "
        "operator and spends exactly one model evaluation",
        report.converged && report.analytic_jvp &&
            report.model_evaluations == 1);
    ctx.claims.check_close(
        {"E16", "above_onset_radius_matches_prediction_at_1e6"},
        "Above the onset the dominant eigenvalue at N = 1e6 matches the "
        "N-independent prediction |1 - 2 eta sqrt(beta)| = 1.262742",
        report.spectral_radius, std::fabs(s), 1e-6);
    ctx.claims.check_true(
        {"E16", "above_onset_unstable_at_1e6"},
        "The S2 instability persists at N = 1e6: the chaos onset "
        "eta* = sqrt(2) is N-independent across four decades",
        !report.stable_modulo_manifold && report.reduced_resolved);
  }
  s2m.print(out);
  ctx.err << "E16 thread CPU time (through S2 at 1e6): "
          << thread_cpu_seconds() - cpu_start << " s\n";

  // ---- T5 at N = 1e6 ------------------------------------------------------
  {
    const double m_d = double(mega_n);
    std::vector<double> mega_skewed(mega_n);
    for (std::size_t i = 0; i < mega_n; ++i) {
      mega_skewed[i] = i < mega_n / 2 ? 0.25 : 0.75;
    }
    const std::vector<double> mega_fair(mega_n, 0.5);
    const double m_fs_fair = core::theorem5_violation(fs, mega_fair, m_d);
    const double m_fs_skew = core::theorem5_violation(fs, mega_skewed, m_d);
    const double m_fifo_skew = core::theorem5_violation(fifo, mega_skewed, m_d);

    TextTable t5m({"discipline", "allocation",
                   "worst Q_i - r_i/(mu - N r_i)", "satisfies Thm 5?"});
    t5m.set_title("\nTheorem-5 discipline condition at N = 1000000, mu = N");
    t5m.add_row({"FairShare", "fair (all 0.5)", fmt_sci(m_fs_fair, 3),
                 fmt_bool(m_fs_fair <= 1e-12)});
    t5m.add_row({"FairShare", "skewed (0.25 / 0.75)", fmt_sci(m_fs_skew, 3),
                 fmt_bool(m_fs_skew <= 1e-12)});
    t5m.add_row({"FIFO", "skewed (0.25 / 0.75)", fmt_sci(m_fifo_skew, 3),
                 fmt_bool(m_fifo_skew <= 1e-12)});
    t5m.print(out);

    ctx.claims.check_at_most(
        {"E16", "fair_share_robust_at_1e6"},
        "Fair Share satisfies the Theorem-5 bound at N = 1e6 on both the "
        "fair and the skewed allocation",
        std::max(m_fs_fair, m_fs_skew), 0.0, 1e-12);
    ctx.claims.check_close(
        {"E16", "fifo_violation_margin_at_1e6"},
        "FIFO violates the Theorem-5 bound at N = 1e6 by the analytic margin "
        "1/(6N)",
        m_fifo_skew, 1.0 / (6.0 * m_d), 1e-12);
  }

  // ---- multi-gateway stability at large N ---------------------------------
  // Individual feedback + Fair Share is the paper's robustly stable design
  // (Theorem 4). Certify it spectrally on two multi-gateway networks far
  // past the dense ceiling: drive each to its fair fixed point (Theorem 2's
  // water-filling start, polished by the damped iteration), then bound the
  // spectral radius through the analytic operator. Gateway capacities scale
  // with fan-in (mu ~ N^a, as in every large-N single-gateway block above)
  // so per-connection shares stay O(1) against the eta = 0.4 step size --
  // with mu = O(1) shares of order 1/N^a make any fixed eta overshoot and
  // the fixed point really is unstable.
  //
  // Heterogeneous shares smear the (real, Theorem-4) spectrum into a
  // cluster just under the radius, which power iteration resolves only
  // polynomially; the power stage sees that from its own contraction and
  // hands the cluster to Arnoldi (docs/SCALING.md).
  out << "\nmulti-gateway stability, individual feedback + Fair Share, "
         "eta = 0.4, beta = 0.5, mu ~ gateway fan-in\n";
  TextTable mg({"topology", "gateways", "N", "fixed point?", "residual",
                "spectral radius", "stable?"});
  mg.set_title("Large-N multi-gateway certification (analytic JVP)");

  const auto certify = [&](const char* label, network::Topology topology,
                           const char* fp_claim, const char* fp_text,
                           const char* stable_claim, const char* stable_text) {
    auto model = FlowControlModel(
        std::move(topology), std::make_shared<queueing::FairShare>(),
        std::make_shared<core::RationalSignal>(), FeedbackStyle::Individual,
        std::make_shared<core::AdditiveTsi>(0.4, beta));
    const auto fp = core::solve_fixed_point(model, core::fair_steady_state(model));
    const auto report =
        spectral::spectral_stability(model, fp.rates, sparse_opts);
    ctx.err << "E16 operator applications (" << label
            << "): " << report.applications << "\n";
    mg.add_row({label, std::to_string(model.topology().num_gateways()),
                std::to_string(model.topology().num_connections()),
                fmt_bool(fp.converged), fmt_sci(fp.residual, 2),
                fmt(report.spectral_radius, 6),
                fmt_bool(report.systemically_stable)});
    ctx.claims.check_true({"E16", fp_claim}, fp_text, fp.converged);
    ctx.claims.check_true(
        {"E16", stable_claim}, stable_text,
        report.converged && report.analytic_jvp && report.systemically_stable);
  };

  certify("parking lot (4 hops)", network::parking_lot(4, 25000, 25001.0),
          "parking_lot_fixed_point_at_1e5",
          "The 4-hop parking lot with 25000 cross connections per hop "
          "(N = 100001) converges to its fair fixed point",
          "parking_lot_stable_at_1e5",
          "At that fixed point the N = 100001 parking lot is spectrally "
          "stable (radius < 1) under individual Fair Share feedback");

  stats::Xoshiro256 rng(20260807);
  network::RandomTopologyParams params;
  params.num_gateways = 200;
  params.num_connections = 50000;
  params.max_path_length = 4;
  // Expected fan-in is num_connections * E[path length] / num_gateways
  // ~ 625 slots; capacities of that order keep shares O(1).
  params.mu_min = 500.0;
  params.mu_max = 750.0;
  certify("random (200 gateways)", network::random_topology(rng, params),
          "random_topology_fixed_point_at_5e4",
          "A seeded 200-gateway random topology with N = 5e4 connections "
          "(paths up to 4 hops) converges to its fair fixed point",
          "random_topology_stable_at_5e4",
          "At that fixed point the random 200-gateway network is spectrally "
          "stable (radius < 1) under individual Fair Share feedback");
  mg.print(out);

  // ---- total CPU budget ---------------------------------------------------
  const double cpu_total = thread_cpu_seconds() - cpu_start;
  ctx.err << "E16 thread CPU time (total): " << cpu_total << " s\n";
  ctx.claims.check_true(
      {"E16", "full_program_under_60s_cpu"},
      "The full E16 program -- S2 and Theorem 5 at N = 1e5 AND 1e6 plus "
      "both multi-gateway certifications -- takes under 60 s of "
      "single-thread CPU time",
      cpu_total < 60.0);

  out << "\nE16 (S2 + Theorem 5 at N = 1e5..1e6, multi-gateway) reproduced: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
