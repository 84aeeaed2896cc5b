// E18 -- modern protocols (RCP, AIMD) under the paper's machinery, driven
// by declarative ScenarioSpec config files (scenarios/*.ini;
// docs/PROTOCOLS.md).
//
// Three blocks:
//
//   1. RCP gain grid (scenarios/rcp_gain_grid.ini). The rate-mismatch +
//      queue-size controller of Voice-Raina (arXiv:1810.01411), in this
//      paper's coordinates f = eta r (alpha (beta - b) - kappa b/(1-b)),
//      swept across its loop-gain stability boundary for the two-form
//      controller and the one-form variant (kappa = 0, the question of
//      arXiv:1906.06153). Each cell: analytic steady state (the adjuster is
//      TSI) + spectral radius of DF. Certifies a stable/unstable gain pair
//      per form.
//
//   2. AIMD oscillation onset (scenarios/aimd_oscillation.ini). LIMD under
//      a smooth-step signal whose sharpness sweeps toward the binary DECbit
//      limit: the symmetric aggregate map converges at gentle feedback and
//      oscillates past an onset sharpness -- the Andrews-Slivkins
//      (arXiv:0812.1321) regime -- while the hard AimdAdjustment never
//      converges at ANY sharpness (it is "either increasing or decreasing
//      at every point", §1).
//
//   3. Theorem-5 prediction matrix (in code -- heterogeneous adjuster mixes
//      are not expressible in a ScenarioSpec). Timid/greedy RCP and AIMD
//      mixes on one bottleneck, under the dichotomy's two endpoints
//      (aggregate + FIFO vs individual + Fair Share): does the Theorem-5
//      boundary predict which design protects the timid sources, even for
//      adjusters the 1990 paper never saw?
//
// Exit code 0 iff every registered claim passes.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/ffc.hpp"
#include "exec/ini.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"
#include "scenario/materialize.hpp"
#include "scenario/spec.hpp"
#include "spectral/stability.hpp"

#ifndef FFC_SCENARIO_DIR
#define FFC_SCENARIO_DIR "scenarios"
#endif

namespace ffc::repro {

namespace {

using namespace ffc;
using report::fmt;
using report::fmt_bool;
using report::TextTable;

scenario::ScenarioGrid load_grid(const char* file) {
  return scenario::ScenarioGrid(scenario::load_scenario_file(
      std::string(FFC_SCENARIO_DIR) + "/" + file));
}

/// Time-averaged per-connection rates of the (possibly never-converging)
/// synchronous dynamics: iterate `steps` from `initial`, average the last
/// `window` iterates.
std::vector<double> time_average_rates(const core::FlowControlModel& model,
                                       std::vector<double> rates,
                                       std::size_t steps,
                                       std::size_t window) {
  core::ModelWorkspace ws;
  std::vector<double> sum(rates.size(), 0.0);
  rates = model.step(rates, ws);
  for (std::size_t t = 1; t < steps; ++t) {
    rates = model.step_unchecked(rates, ws);
    if (t >= steps - window) {
      for (std::size_t i = 0; i < rates.size(); ++i) sum[i] += rates[i];
    }
  }
  for (double& s : sum) s /= static_cast<double>(window);
  return sum;
}

}  // namespace

void run_e18(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E18: modern protocols (RCP, AIMD) under declarative "
         "scenarios ==\n";

  // ---- block 1: RCP gain grid ---------------------------------------------
  const scenario::ScenarioGrid rcp = load_grid("rcp_gain_grid.ini");
  const exec::ParamGrid& rgrid = rcp.grid();
  out << "\nscenario '" << rcp.spec().name << "': " << rgrid.size()
      << " cells, " << rcp.spec().description << "\n";

  struct RcpCell {
    double b_ss = 0.0;
    double radius = 0.0;
    bool stable = false;
  };
  exec::SweepRunner runner(ctx.sweep);
  const auto rcp_cells = runner.run(
      rgrid, [&](const exec::GridPoint& p, std::uint64_t /*seed*/,
                 obs::MetricRegistry& /*metrics*/) -> RcpCell {
        const scenario::ScenarioCase cell = rcp.materialize(p);
        RcpCell result;
        result.b_ss = *cell.adjuster->steady_signal();
        const auto rates = core::fair_steady_state(cell.model);
        const auto report = spectral::spectral_stability(cell.model, rates);
        result.radius = report.spectral_radius;
        result.stable = report.systemically_stable;
        return result;
      });
  runner.last_report().print(ctx.err);
  if (!ctx.metrics_out.empty() &&
      !exec::write_manifest(runner.last_manifest(), ctx.metrics_out)) {
    ctx.io_error = true;
    return;
  }

  TextTable rcp_table({"protocol", "eta", "b_ss", "radius", "stable?"});
  rcp_table.set_title("\nRCP spectral radius at the analytic steady state");
  double stable_rcp = -1.0, unstable_rcp = -1.0;
  double stable_rcp1 = -1.0, unstable_rcp1 = -1.0;
  double b_ss_rcp = 0.0, b_ss_rcp1 = 0.0;
  const double eta_lo = rgrid.axis_at(rgrid.axis_index("eta")).values.front();
  const double eta_hi = rgrid.axis_at(rgrid.axis_index("eta")).values.back();
  for (std::size_t idx = 0; idx < rgrid.size(); ++idx) {
    const auto p = rgrid.point(idx);
    const std::string protocol = rcp.choice("protocol", p);
    const double eta = p.get("eta");
    const RcpCell& cell = rcp_cells[idx];
    rcp_table.add_row({protocol, fmt(eta, 2), fmt(cell.b_ss, 4),
                       fmt(cell.radius, 4), fmt_bool(cell.stable)});
    double& stable_slot = protocol == "rcp" ? stable_rcp : stable_rcp1;
    double& unstable_slot = protocol == "rcp" ? unstable_rcp : unstable_rcp1;
    if (eta == eta_lo) stable_slot = cell.radius;
    if (eta == eta_hi) unstable_slot = cell.radius;
    (protocol == "rcp" ? b_ss_rcp : b_ss_rcp1) = cell.b_ss;
  }
  rcp_table.print(out);

  const double beta_target = [&] {
    for (const auto& [k, v] : rcp.spec().params) {
      if (k == "beta") return v;
    }
    return 0.0;
  }();

  ctx.claims.check_at_most(
      {"E18", "rcp_stable_gain"},
      "Two-form RCP (rate mismatch + queue drain, arXiv:1810.01411) is "
      "spectrally stable at the low loop gain of the scenario grid",
      stable_rcp, 0.999);
  ctx.claims.check_at_least(
      {"E18", "rcp_unstable_gain"},
      "Two-form RCP loses spectral stability at the high loop gain -- the "
      "gain-threshold instability of arXiv:1810.01411",
      unstable_rcp, 1.001);
  ctx.claims.check_at_most(
      {"E18", "rcp1_stable_gain"},
      "One-form RCP (no queue term, arXiv:1906.06153) is spectrally stable "
      "at the same low gain",
      stable_rcp1, 0.999);
  ctx.claims.check_at_least(
      {"E18", "rcp1_unstable_gain"},
      "One-form RCP also destabilizes at the high gain: dropping the queue "
      "term does not buy stability at large loop gains",
      unstable_rcp1, 1.001);
  ctx.claims.check_close(
      {"E18", "rcp1_steady_signal_is_beta"},
      "Without the queue term the steady signal sits exactly at the target "
      "beta (the controller is plain multiplicative-TSI)",
      b_ss_rcp1, beta_target, 1e-12);
  ctx.claims.check_at_most(
      {"E18", "rcp_queue_term_drains"},
      "The two-form queue term drains the steady state below the target: "
      "b_ss < beta strictly",
      b_ss_rcp, beta_target - 1e-3);

  // ---- block 2: AIMD oscillation onset ------------------------------------
  const scenario::ScenarioGrid aimd = load_grid("aimd_oscillation.ini");
  const exec::ParamGrid& agrid = aimd.grid();
  out << "\nscenario '" << aimd.spec().name << "': " << agrid.size()
      << " cells, " << aimd.spec().description << "\n";

  TextTable aimd_table(
      {"sharpness", "kind", "period", "amplitude", "final"});
  aimd_table.set_title(
      "\nLIMD symmetric-map orbit vs smooth-step sharpness (per-source "
      "rate)");
  const double x0 = 0.03;
  std::vector<bool> oscillates(agrid.size(), false);
  for (std::size_t idx = 0; idx < agrid.size(); ++idx) {
    const auto p = agrid.point(idx);
    const scenario::ScenarioCase cell = aimd.materialize(p);
    const core::OneDMap map = core::make_symmetric_aggregate_map(
        static_cast<std::size_t>(aimd.value("connections", p)),
        cell.model.topology().gateway(0).mu,
        cell.model.topology().gateway(0).latency, cell.signal, cell.adjuster);
    const core::ScalarOrbit orbit = map.classify(x0);
    oscillates[idx] = orbit.kind != core::ScalarOrbitKind::Converged;
    aimd_table.add_row(
        {fmt(p.get("sharpness"), 0),
         orbit.kind == core::ScalarOrbitKind::Converged ? "converged"
         : orbit.kind == core::ScalarOrbitKind::Periodic ? "periodic"
         : orbit.kind == core::ScalarOrbitKind::Diverged ? "diverged"
                                                         : "irregular",
         std::to_string(orbit.period), fmt(orbit.max - orbit.min, 5),
         fmt(orbit.final_value, 5)});
  }
  aimd_table.print(out);

  // Onset = first non-converged sharpness; the orbit must stay oscillatory
  // from there on (a clean boundary, not a stability island).
  std::size_t onset = agrid.size();
  for (std::size_t idx = 0; idx < agrid.size(); ++idx) {
    if (oscillates[idx]) {
      onset = idx;
      break;
    }
  }
  const bool onset_interior = onset > 0 && onset < agrid.size();
  bool clean_boundary = onset_interior;
  for (std::size_t idx = onset; idx < agrid.size() && clean_boundary; ++idx) {
    clean_boundary = oscillates[idx];
  }
  const auto& sharp_axis = agrid.axis_at(agrid.axis_index("sharpness"));
  ctx.claims.check_true(
      {"E18", "aimd_smooth_feedback_converges"},
      "Under gentle smooth-step feedback (lowest sharpness) the LIMD "
      "symmetric map converges to a steady state",
      !oscillates.front());
  ctx.claims
      .check_true(
          {"E18", "aimd_oscillation_onset"},
          "Sharpening the feedback toward the binary limit crosses an "
          "oscillation onset inside the swept sharpness range, and the "
          "orbit stays oscillatory beyond it (arXiv:0812.1321)",
          onset_interior && clean_boundary)
      .note("onset_bracket",
            exec::format_double(
                sharp_axis.values[onset_interior ? onset - 1 : 0]) +
                ".." +
                exec::format_double(
                    sharp_axis.values[onset_interior ? onset : 0]));
  if (onset_interior) {
    out << "\noscillation onset between sharpness "
        << fmt(sharp_axis.values[onset - 1], 0) << " and "
        << fmt(sharp_axis.values[onset], 0) << "\n";
  }

  // Hard AIMD never converges, at any gain: the switching adjuster is
  // "either increasing or decreasing at every point" (§1), so every orbit
  // keeps an amplitude of at least one additive-increase step.
  TextTable hard_table({"increase", "decrease", "threshold", "kind",
                        "amplitude"});
  hard_table.set_title("\nhard AIMD orbits (never converge, any gains)");
  bool hard_never_converges = true;
  double hard_min_amplitude = std::numeric_limits<double>::infinity();
  const struct {
    double increase, decrease, threshold;
  } hard_cases[] = {{0.005, 0.5, 0.5}, {0.02, 0.25, 0.6}, {0.05, 0.5, 0.4}};
  for (const auto& hc : hard_cases) {
    const core::OneDMap map = core::make_symmetric_aggregate_map(
        10, 1.0, 0.0, std::make_shared<core::RationalSignal>(),
        std::make_shared<core::AimdAdjustment>(hc.increase, hc.decrease,
                                               hc.threshold));
    const core::ScalarOrbit orbit = map.classify(x0);
    const double amplitude = orbit.max - orbit.min;
    hard_never_converges &=
        orbit.kind != core::ScalarOrbitKind::Converged;
    hard_min_amplitude = std::min(hard_min_amplitude, amplitude);
    hard_table.add_row({fmt(hc.increase, 3), fmt(hc.decrease, 2),
                        fmt(hc.threshold, 2),
                        orbit.kind == core::ScalarOrbitKind::Periodic
                            ? "periodic"
                            : (orbit.kind == core::ScalarOrbitKind::Converged
                                   ? "converged"
                                   : "irregular"),
                        fmt(amplitude, 5)});
  }
  hard_table.print(out);
  ctx.claims.check_true(
      {"E18", "hard_aimd_never_converges"},
      "The hard-threshold AIMD adjuster never reaches a steady state at any "
      "of the tested gain triples",
      hard_never_converges);
  ctx.claims.check_at_least(
      {"E18", "hard_aimd_amplitude_floor"},
      "Every hard-AIMD orbit keeps an amplitude of at least its "
      "additive-increase step (the §1 sawtooth floor)",
      hard_min_amplitude, 0.005);

  // ---- block 3: does Theorem 5's boundary predict timid/greedy? -----------
  out << "\nTheorem-5 prediction matrix: timid/greedy mixes under the "
         "dichotomy endpoints\n";
  const std::size_t n3 = 3;  // two timid + one greedy
  const auto run_design = [&](bool fair_share,
                              std::vector<std::shared_ptr<
                                  const core::RateAdjustment>>
                                  adjusters,
                              bool converging) {
    std::shared_ptr<const queueing::ServiceDiscipline> q;
    if (fair_share) {
      q = std::make_shared<queueing::FairShare>();
    } else {
      q = std::make_shared<queueing::Fifo>();
    }
    core::FlowControlModel model(
        network::single_bottleneck(n3, 1.0), q,
        std::make_shared<core::RationalSignal>(),
        fair_share ? core::FeedbackStyle::Individual
                   : core::FeedbackStyle::Aggregate,
        std::move(adjusters));
    std::vector<double> rates;
    if (converging) {
      core::FixedPointOptions opts;
      opts.damping = 0.5;
      rates = core::solve_fixed_point(model, std::vector<double>(n3, 0.1),
                                      opts)
                  .rates;
    } else {
      rates =
          time_average_rates(model, std::vector<double>(n3, 0.1), 4000, 1000);
    }
    return std::make_pair(std::move(model), std::move(rates));
  };

  // RCP: timid targets b_ss via beta = 0.35, greedy via beta = 0.65.
  auto rcp_mix = [&] {
    std::vector<std::shared_ptr<const core::RateAdjustment>> mix;
    mix.push_back(std::make_shared<core::RcpAdjustment>(0.3, 1.0, 0.5, 0.35));
    mix.push_back(std::make_shared<core::RcpAdjustment>(0.3, 1.0, 0.5, 0.35));
    mix.push_back(std::make_shared<core::RcpAdjustment>(0.3, 1.0, 0.5, 0.65));
    return mix;
  };
  auto [rcp_fifo_model, rcp_fifo_rates] =
      run_design(false, rcp_mix(), true);
  auto [rcp_fs_model, rcp_fs_rates] =
      run_design(true, rcp_mix(), true);
  const auto rcp_fifo_rob = core::check_robustness(rcp_fifo_model,
                                                   rcp_fifo_rates);
  const auto rcp_fs_rob = core::check_robustness(rcp_fs_model, rcp_fs_rates);
  const double rcp_fifo_shortfall =
      std::max(rcp_fifo_rob.shortfall[0], rcp_fifo_rob.shortfall[1]);
  const double rcp_fs_shortfall =
      std::max(rcp_fs_rob.shortfall[0], rcp_fs_rob.shortfall[1]);

  // AIMD: timid backs off earlier (low threshold), greedy later (high).
  auto aimd_mix = [&] {
    std::vector<std::shared_ptr<const core::RateAdjustment>> mix;
    mix.push_back(
        std::make_shared<core::AimdAdjustment>(0.005, 0.25, 0.35));
    mix.push_back(
        std::make_shared<core::AimdAdjustment>(0.005, 0.25, 0.35));
    mix.push_back(std::make_shared<core::AimdAdjustment>(0.005, 0.25, 0.65));
    return mix;
  };
  auto [aimd_fifo_model, aimd_fifo_rates] =
      run_design(false, aimd_mix(), false);
  auto [aimd_fs_model, aimd_fs_rates] =
      run_design(true, aimd_mix(), false);
  const double aimd_fifo_timid =
      std::min(aimd_fifo_rates[0], aimd_fifo_rates[1]);
  const double aimd_fs_timid = std::min(aimd_fs_rates[0], aimd_fs_rates[1]);

  TextTable t5_table({"protocol", "design", "r_timid", "r_greedy",
                      "timid shortfall/floor"});
  t5_table.set_title("\ntimid vs greedy allocations (r_timid = worse timid)");
  const auto add_t5_row = [&](const char* protocol, const char* design,
                              const std::vector<double>& rates,
                              const core::RobustnessReport* rob) {
    const double timid = std::min(rates[0], rates[1]);
    std::string shortfall = "n/a (not TSI)";
    if (rob != nullptr) {
      const double worst = std::max(rob->shortfall[0], rob->shortfall[1]);
      shortfall = fmt(worst / rob->floor[0], 4);
    }
    t5_table.add_row(
        {protocol, design, fmt(timid, 4), fmt(rates[2], 4), shortfall});
  };
  add_t5_row("rcp", "aggregate+FIFO", rcp_fifo_rates, &rcp_fifo_rob);
  add_t5_row("rcp", "individual+FairShare", rcp_fs_rates, &rcp_fs_rob);
  add_t5_row("aimd", "aggregate+FIFO", aimd_fifo_rates, nullptr);
  add_t5_row("aimd", "individual+FairShare", aimd_fs_rates, nullptr);
  t5_table.print(out);

  const double rcp_floor = rcp_fifo_rob.floor[0];
  ctx.claims.check_at_most(
      {"E18", "rcp_theorem5_fair_share_protects"},
      "Individual + Fair Share keeps the timid RCP sources' shortfall "
      "within 10% of the reservation floor -- Theorem 5's robust side "
      "predicts RCP's behavior",
      rcp_fs_shortfall, 0.1 * rcp_floor);
  ctx.claims.check_at_least(
      {"E18", "rcp_theorem5_fifo_starves"},
      "Aggregate + FIFO costs a timid RCP source at least a quarter of its "
      "reservation floor -- Theorem 5's non-robust side also predicts RCP",
      rcp_fifo_shortfall, 0.25 * rcp_floor);
  ctx.claims.check_at_least(
      {"E18", "aimd_theorem5_boundary_predicts"},
      "The timid AIMD sources' time-average rate under individual + Fair "
      "Share exceeds their rate under aggregate + FIFO by at least 25% -- "
      "the Theorem-5 boundary predicts AIMD's timid/greedy behavior too",
      aimd_fs_timid, 1.25 * aimd_fifo_timid);

  out << "\nE18 (modern protocols) reproduced: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
