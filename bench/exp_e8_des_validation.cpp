// E8 -- model validation: the paper's §2 modelling approximations, checked
// against the packet-level discrete-event simulator.
//
//   (1) Open-loop queues: simulated per-connection occupancy at a gateway vs
//       the analytic Q_i(r) for FIFO and Fair Share, including Fair Share's
//       protection of a small sender at an overloaded gateway.
//   (2) Network effects: a two-hop tandem, checking the Poisson-through-
//       the-network approximation (Burke) and the additivity of delays.
//   (3) Closed loop: epoch-based feedback over the simulator vs the
//       synchronous analytic iteration -- rate trajectories side by side.
//
// The five packet-level workloads are independent simulations, so they run
// as one exec::SweepRunner sweep: --jobs N fans them across threads, each
// with its own seed derived from (--seed, workload index), and measurements
// come back in workload order -- stdout is byte-identical at any --jobs
// (sweep timing goes to stderr).
//
// Claims (exit code 0 iff all pass): simulation matches analytics within
// the stated bands.
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/ffc.hpp"
#include "exec/param_grid.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"
#include "sim/feedback_sim.hpp"
#include "sim/network_sim.hpp"

namespace ffc::repro {

namespace {

using namespace ffc;
using report::fmt;
using report::fmt_bool;
using report::TextTable;

bool within(double measured, double expected, double band) {
  return std::fabs(measured - expected) <= band;
}

// The workloads of the sweep, in grid order.
enum Workload : std::size_t {
  kOpenFifo = 0,
  kOpenFairShare = 1,
  kOverload = 2,
  kTandem = 3,
  kClosedLoop = 4,
  kNumWorkloads = 5,
};

constexpr std::size_t kClosedLoopEpochs = 30;

}  // namespace

void run_e8(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E8: discrete-event validation of the analytic model ==\n";

  const std::vector<double> open_rates{0.1, 0.25, 0.4};
  const std::vector<double> overload_rates{0.1, 0.55, 0.55};  // total > mu
  const std::vector<double> r0{0.05, 0.2, 0.35};
  const std::size_t n_loop = r0.size();
  std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters(
      n_loop, std::make_shared<core::AdditiveTsi>(0.15, 0.5));

  // ---- run all five packet-level workloads as one sweep -------------------
  // Each task returns its measurements as a flat vector; analysis and table
  // rendering happen afterwards, in order, on the main thread.
  exec::ParamGrid grid;
  grid.axis("workload", exec::ParamGrid::linspace(0.0, kNumWorkloads - 1,
                                                  kNumWorkloads));
  exec::SweepRunner runner(ctx.sweep);
  const auto measurements = runner.run(
      grid,
      [&](const exec::GridPoint& p, std::uint64_t seed,
          obs::MetricRegistry& metrics) -> std::vector<double> {
        switch (p.index()) {
          case kOpenFifo:
          case kOpenFairShare: {
            const auto kind = p.index() == kOpenFifo
                                  ? sim::SimDiscipline::Fifo
                                  : sim::SimDiscipline::FairShare;
            sim::NetworkSimulator netsim(network::single_bottleneck(3, 1.0),
                                         kind, seed);
            netsim.set_rates(open_rates);
            netsim.run_for(15000.0);
            netsim.reset_metrics();
            netsim.run_for(80000.0);
            std::vector<double> q;
            for (std::size_t i = 0; i < open_rates.size(); ++i) {
              q.push_back(netsim.mean_queue(0, i));
            }
            netsim.collect_metrics(metrics);
            return q;
          }
          case kOverload: {
            sim::NetworkSimulator netsim(network::single_bottleneck(3, 1.0),
                                         sim::SimDiscipline::FairShare, seed);
            netsim.set_rates(overload_rates);
            netsim.run_for(5000.0);
            netsim.reset_metrics();
            netsim.run_for(40000.0);
            const double q = netsim.mean_queue(0, 0);
            netsim.collect_metrics(metrics);
            return {q};
          }
          case kTandem: {
            network::Topology topo({{1.0, 0.5}, {0.8, 0.25}},
                                   {network::Connection{{0, 1}}});
            sim::NetworkSimulator netsim(topo, sim::SimDiscipline::Fifo,
                                         seed);
            netsim.set_rates({0.4});
            netsim.run_for(10000.0);
            netsim.reset_metrics();
            netsim.run_for(80000.0);
            const double q2 = netsim.mean_queue(1, 0);
            const double d = netsim.mean_delay(0);
            netsim.collect_metrics(metrics);
            return {q2, d};
          }
          case kClosedLoop: {
            sim::ClosedLoopOptions opts;
            opts.epoch_duration = 4000.0;
            sim::ClosedLoopSimulator loop(
                network::single_bottleneck(n_loop, 1.0),
                sim::SimDiscipline::FairShare,
                std::make_shared<core::RationalSignal>(),
                core::FeedbackStyle::Individual, adjusters, seed, opts);
            const auto records = loop.run(r0, kClosedLoopEpochs);
            metrics.add("loop.epochs", records.size());
            loop.network().collect_metrics(metrics);
            // Flatten: per-epoch (r_0, r_2) pairs, then the final rates.
            std::vector<double> flat;
            for (const auto& record : records) {
              flat.push_back(record.rates[0]);
              flat.push_back(record.rates[2]);
            }
            for (double r : loop.rates()) flat.push_back(r);
            return flat;
          }
        }
        return {};
      });
  runner.last_report().print(ctx.err);
  if (!ctx.metrics_out.empty() &&
      !exec::write_manifest(runner.last_manifest(), ctx.metrics_out)) {
    ctx.io_error = true;
    return;
  }

  // ---- (1) open-loop queue validation ------------------------------------
  {
    TextTable table({"discipline", "connection", "rate", "analytic Q_i",
                     "simulated Q_i", "match?"});
    table.set_title("\nSingle gateway (mu = 1), open loop, T = 80000");
    bool all_match = true;
    for (auto workload : {kOpenFifo, kOpenFairShare}) {
      std::shared_ptr<const queueing::ServiceDiscipline> analytic;
      if (workload == kOpenFifo) {
        analytic = std::make_shared<queueing::Fifo>();
      } else {
        analytic = std::make_shared<queueing::FairShare>();
      }
      const auto expected = analytic->queue_lengths(open_rates, 1.0);
      for (std::size_t i = 0; i < open_rates.size(); ++i) {
        const double measured = measurements[workload][i];
        const bool match = within(measured, expected[i],
                                  0.05 + 0.15 * expected[i]);
        all_match = all_match && match;
        table.add_row({std::string(analytic->name()), std::to_string(i),
                       fmt(open_rates[i], 2), fmt(expected[i], 4),
                       fmt(measured, 4), fmt_bool(match)});
      }
    }
    table.print(out);
    ctx.claims.check_true(
        {"E8", "open_loop_queues_match"},
        "Simulated per-connection occupancy matches the analytic Q_i(r) for "
        "FIFO and Fair Share within the 0.05 + 15% band",
        all_match);
  }

  // ---- (1b) overload protection -------------------------------------------
  {
    queueing::FairShare fs;
    const double expected = fs.queue_lengths(overload_rates, 1.0)[0];
    const double measured = measurements[kOverload][0];
    const bool match = within(measured, expected, 0.05);
    ctx.claims.check_close(
        {"E8", "overload_protection"},
        "At an overloaded gateway (load 1.2) Fair Share keeps the small "
        "sender's simulated queue at the analytic prediction",
        measured, expected, 0.05);
    out << "\nOverloaded gateway (load 1.2): small sender's Q under "
           "Fair Share\n  analytic "
        << fmt(expected, 4) << " vs simulated " << fmt(measured, 4)
        << "  -> " << (match ? "protected, matches" : "MISMATCH")
        << "\n";
  }

  // ---- (2) tandem network --------------------------------------------------
  {
    const double q2_expected = (0.4 / 0.8) / (1.0 - 0.4 / 0.8);
    const double d_expected =
        0.75 + 1.0 / (1.0 - 0.4) + 1.0 / (0.8 - 0.4);
    const double q2 = measurements[kTandem][0];
    const double d = measurements[kTandem][1];
    const bool q_ok = within(q2, q2_expected, 0.12);
    const bool d_ok = within(d, d_expected, 0.2);
    ctx.claims.check_close(
        {"E8", "tandem_downstream_queue"},
        "Downstream queue of the two-hop tandem matches the "
        "Poisson-through-network (Burke) prediction",
        q2, q2_expected, 0.12);
    ctx.claims.check_close(
        {"E8", "tandem_delay_additive"},
        "One-way tandem delay matches the sum of per-hop latencies and "
        "M/M/1 sojourn times",
        d, d_expected, 0.2);
    TextTable table({"quantity", "analytic", "simulated", "match?"});
    table.set_title("\nTwo-hop tandem, r = 0.4 (Poisson-through-network "
                    "check)");
    table.add_row({"downstream Q", fmt(q2_expected, 4), fmt(q2, 4),
                   fmt_bool(q_ok)});
    table.add_row({"one-way delay", fmt(d_expected, 4), fmt(d, 4),
                   fmt_bool(d_ok)});
    table.print(out);
  }

  // ---- (3) closed loop ------------------------------------------------------
  {
    const auto& flat = measurements[kClosedLoop];
    core::FlowControlModel model(
        network::single_bottleneck(n_loop, 1.0),
        std::make_shared<queueing::FairShare>(),
        std::make_shared<core::RationalSignal>(),
        core::FeedbackStyle::Individual, adjusters[0]);
    TextTable table({"epoch", "model r_0", "sim r_0", "model r_2", "sim r_2"});
    table.set_title("\nClosed loop vs synchronous model (individual + Fair "
                    "Share, eta = 0.15)");
    std::vector<double> r = r0;
    core::ModelWorkspace ws;
    double worst_gap = 0.0;
    for (std::size_t e = 0; e < kClosedLoopEpochs; ++e) {
      const double sim_r0 = flat[2 * e];
      const double sim_r2 = flat[2 * e + 1];
      worst_gap = std::max(worst_gap, std::fabs(sim_r0 - r[0]));
      worst_gap = std::max(worst_gap, std::fabs(sim_r2 - r[2]));
      if (e % 5 == 0 || e + 1 == kClosedLoopEpochs) {
        table.add_row({std::to_string(e), fmt(r[0], 4), fmt(sim_r0, 4),
                       fmt(r[2], 4), fmt(sim_r2, 4)});
      }
      r = model.step(r, ws);
    }
    table.print(out);
    bool converged_fair = true;
    for (std::size_t i = 0; i < n_loop; ++i) {
      const double final_rate = flat[2 * kClosedLoopEpochs + i];
      converged_fair = converged_fair && within(final_rate, 0.5 / 3.0, 0.05);
    }
    ctx.claims
        .check_at_most(
            {"E8", "closed_loop_tracking"},
            "The epoch-based simulated rate trajectory tracks the "
            "synchronous analytic iteration (worst per-epoch gap)",
            worst_gap, 0.08)
        .annotate_metrics(runner.last_manifest().merged, "loop.");
    ctx.claims.check_true(
        {"E8", "closed_loop_reaches_fair_point"},
        "The simulated closed loop ends within 0.05 of the fair point "
        "0.1667 on every connection",
        converged_fair);
    out << "\nworst per-epoch gap between simulated and analytic "
           "trajectory: "
        << fmt(worst_gap, 4)
        << "\nfinal simulated rates near fair point 0.1667: "
        << fmt_bool(converged_fair) << "\n";
  }

  out << "\nE8 (model validation) reproduced: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
