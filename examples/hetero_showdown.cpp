// Heterogeneity showdown (§3.4): what happens when polite and greedy flow
// control share a gateway, under each of the paper's three designs?
//
//   $ hetero_showdown [beta_timid] [beta_greedy]
//
// Prints the rate trajectories side by side:
//   aggregate + FIFO        -> the timid connection is starved to zero
//   individual + FIFO       -> timid survives but below its reservation
//   individual + Fair Share -> timid gets at least the reservation floor
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/ffc.hpp"
#include "exec/cli.hpp"
#include "report/ascii_plot.hpp"
#include "report/table.hpp"

namespace {

int usage() {
  std::cerr << "usage: hetero_showdown [beta_timid] [beta_greedy] with "
               "0 < timid < greedy < 1\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffc;

  double beta_timid = 0.35;
  double beta_greedy = 0.65;
  if (argc > 3) return usage();
  if (argc > 1 && !exec::parse_double(argv[1], beta_timid)) return usage();
  if (argc > 2 && !exec::parse_double(argv[2], beta_greedy)) return usage();
  if (beta_timid <= 0 || beta_greedy >= 1 || beta_timid >= beta_greedy) {
    return usage();
  }

  const auto topo = network::single_bottleneck(2, 1.0);
  std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters{
      std::make_shared<core::AdditiveTsi>(0.1, beta_timid),
      std::make_shared<core::AdditiveTsi>(0.1, beta_greedy)};
  std::cout << "two connections, one gateway (mu = 1): timid targets b_ss = "
            << beta_timid << ", greedy targets b_ss = " << beta_greedy
            << "\nreservation floors: timid " << beta_timid / 2
            << ", greedy " << beta_greedy / 2 << "\n";

  struct Design {
    const char* label;
    core::FeedbackStyle style;
    std::shared_ptr<const queueing::ServiceDiscipline> discipline;
    char glyph;
  };
  const Design designs[] = {
      {"aggregate + FIFO", core::FeedbackStyle::Aggregate,
       std::make_shared<queueing::Fifo>(), 'a'},
      {"individual + FIFO", core::FeedbackStyle::Individual,
       std::make_shared<queueing::Fifo>(), 'f'},
      {"individual + FairShare", core::FeedbackStyle::Individual,
       std::make_shared<queueing::FairShare>(), 's'},
  };

  report::AsciiPlot plot(90, 20);
  plot.set_title("\ntimid connection's rate over time (a = aggregate/FIFO, "
                 "f = individual/FIFO, s = individual/FairShare)");
  plot.set_x_label("iteration");
  plot.set_y_label("r_timid");

  report::TextTable table({"design", "timid r_ss", "greedy r_ss",
                           "timid floor", "verdict"});
  table.set_title("\nOutcomes");
  bool expected_pattern = true;
  for (const auto& design : designs) {
    core::FlowControlModel model(topo, design.discipline,
                                 std::make_shared<core::RationalSignal>(),
                                 design.style, adjusters);
    std::vector<double> r{0.2, 0.2};
    core::ModelWorkspace ws;
    for (int t = 0; t <= 400; ++t) {
      if (t % 4 == 0) plot.add_point(t, r[0], design.glyph);
      r = model.step(r, ws);
    }
    const auto robust = core::check_robustness(model, r, 1e-2);
    const char* verdict =
        r[0] < 1e-4 ? "STARVED"
                    : (robust.robust ? "robust (>= floor)" : "below floor");
    table.add_row({design.label, report::fmt(r[0], 4),
                   report::fmt(r[1], 4), report::fmt(robust.floor[0], 4),
                   verdict});
    if (design.style == core::FeedbackStyle::Aggregate) {
      expected_pattern = expected_pattern && r[0] < 1e-4;
    } else if (design.discipline->name() ==
               std::string_view("FairShare")) {
      expected_pattern = expected_pattern && robust.robust;
    } else {
      expected_pattern = expected_pattern && r[0] > 1e-4 && !robust.robust;
    }
  }
  plot.print(std::cout);
  table.print(std::cout);

  std::cout << "\npaper's ranking reproduced: "
            << report::fmt_bool(expected_pattern) << "\n";
  return expected_pattern ? EXIT_SUCCESS : EXIT_FAILURE;
}
