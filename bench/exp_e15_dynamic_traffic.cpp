// E15 -- beyond the paper: dynamic traffic (§2.5 lists "the effects of
// dynamic traffic patterns" among the model's neglected realities).
//
// Connections join and leave. After each change the network must
// re-converge to the new fair allocation. We measure, for each design, the
// transient: how many synchronous steps until the allocation is within 1%
// of the new fair point, and whether the incumbent connections yield
// bandwidth to a newcomer at all.
//
//   * individual + Fair Share: reconverges to the new fair split after both
//     a join and a leave;
//   * aggregate + FIFO: after a join, the incumbents yield only the
//     aggregate surplus -- the newcomer is held FAR below the fair share
//     forever (the manifold remembers history), and after a leave the freed
//     bandwidth is redistributed in proportion to nothing fair.
//
// Exit code 0 iff individual+FS reconverges fairly after churn and
// aggregate demonstrably does not.
#include <cmath>
#include <memory>

#include "core/ffc.hpp"
#include "report/table.hpp"
#include "repro/experiments.hpp"

namespace ffc::repro {

namespace {

using namespace ffc;
using core::FeedbackStyle;
using core::FlowControlModel;
using report::fmt;
using report::fmt_bool;
using report::TextTable;

/// Steps until every rate is within 1% of `target` (or max_steps).
std::size_t steps_to_reach(const FlowControlModel& model,
                           std::vector<double>& rates,
                           const std::vector<double>& target,
                           std::size_t max_steps) {
  core::ModelWorkspace ws;
  for (std::size_t t = 0; t < max_steps; ++t) {
    bool close = true;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      close = close &&
              std::fabs(rates[i] - target[i]) <= 0.01 * (target[i] + 1e-9);
    }
    if (close) return t;
    rates = model.step(rates, ws);
  }
  return max_steps;
}

}  // namespace

void run_e15(ExperimentContext& ctx) {
  auto& out = ctx.out;
  out << "== E15: connection churn (join / leave transients) ==\n\n";
  const double beta = 0.5;
  const std::size_t max_steps = 50000;

  // Phase A: 3 connections at one gateway. Phase B: a 4th joins from rate
  // ~0. Phase C: connection 0 leaves (rate forced to 0, modeled by moving
  // to the smaller topology again).
  TextTable table({"design", "steps: cold start (3)", "steps: join (4th)",
                   "newcomer r after join", "steps: leave",
                   "fair after churn?"});
  table.set_title("Reconvergence to the fair allocation (1% band), mu = 1, "
                  "rho_ss = 0.5");

  struct Design {
    const char* label;
    FeedbackStyle style;
    std::shared_ptr<const queueing::ServiceDiscipline> discipline;
  };
  const Design designs[] = {
      {"individual + FairShare", FeedbackStyle::Individual,
       std::make_shared<queueing::FairShare>()},
      {"individual + FIFO", FeedbackStyle::Individual,
       std::make_shared<queueing::Fifo>()},
      {"aggregate  + FIFO", FeedbackStyle::Aggregate,
       std::make_shared<queueing::Fifo>()},
  };

  bool fs_churn_fair = false, fifo_ind_churn_fair = false;
  bool agg_join_stuck = false;
  double agg_newcomer = 1e300;
  for (const auto& design : designs) {
    auto adj = std::make_shared<core::AdditiveTsi>(0.05, beta);
    FlowControlModel model3(network::single_bottleneck(3, 1.0),
                            design.discipline,
                            std::make_shared<core::RationalSignal>(),
                            design.style, adj);
    FlowControlModel model4(network::single_bottleneck(4, 1.0),
                            design.discipline,
                            std::make_shared<core::RationalSignal>(),
                            design.style, adj);

    // Cold start with 3 connections.
    std::vector<double> rates{0.01, 0.02, 0.03};
    const std::vector<double> fair3(3, beta / 3.0);
    const std::size_t cold = steps_to_reach(model3, rates, fair3, max_steps);

    // A 4th connection joins at (nearly) zero rate.
    rates.push_back(1e-4);
    const std::vector<double> fair4(4, beta / 4.0);
    std::vector<double> join_rates = rates;
    const std::size_t join =
        steps_to_reach(model4, join_rates, fair4, max_steps);
    const double newcomer = join_rates[3];

    // Connection 3 leaves; the rest re-spread.
    std::vector<double> leave_rates{join_rates[0], join_rates[1],
                                    join_rates[2]};
    std::vector<double> leave_copy = leave_rates;
    const std::size_t leave =
        steps_to_reach(model3, leave_copy, fair3, max_steps);

    const bool join_fair = join < max_steps;
    const bool leave_fair = leave < max_steps;
    const bool churn_fair = join_fair && leave_fair;
    table.add_row({design.label,
                   cold < max_steps ? std::to_string(cold) : ">max",
                   join_fair ? std::to_string(join) : ">max",
                   fmt(newcomer, 4),
                   leave_fair ? std::to_string(leave) : ">max",
                   fmt_bool(churn_fair)});

    if (design.style == FeedbackStyle::Individual) {
      if (design.discipline->name() == std::string_view("FairShare")) {
        fs_churn_fair = churn_fair;
      } else {
        fifo_ind_churn_fair = churn_fair;
      }
    } else {
      agg_join_stuck = !join_fair;
      agg_newcomer = newcomer;
    }
  }
  table.print(out);

  ctx.claims.check_true(
      {"E15", "individual_fs_churn_fair"},
      "Individual + Fair Share reconverges to the new fair split after "
      "both a join and a leave",
      fs_churn_fair);
  ctx.claims.check_true(
      {"E15", "individual_fifo_churn_fair"},
      "Individual + FIFO also reconverges fairly after churn (fairness is "
      "the feedback style's doing)",
      fifo_ind_churn_fair);
  ctx.claims.check_true(
      {"E15", "aggregate_join_stuck"},
      "Aggregate + FIFO never reaches the new fair split after a join "
      "(the manifold remembers history)",
      agg_join_stuck);
  ctx.claims.check_at_most(
      {"E15", "aggregate_newcomer_shortchanged"},
      "The newcomer under aggregate feedback is parked below half the "
      "fair share beta/4",
      agg_newcomer, 0.5 * beta / 4.0);

  out << "\nIndividual feedback reconverges to the new fair split after "
         "every change;\naggregate feedback parks the newcomer at whatever "
         "the manifold hands it\n(additive aggregate control preserves rate "
         "DIFFERENCES, so history never fades).\n";

  out << "\nE15 (dynamic traffic) holds: "
      << (ctx.claims.all_passed() ? "YES" : "NO") << "\n";
}

}  // namespace ffc::repro
