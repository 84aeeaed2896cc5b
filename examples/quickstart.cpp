// Quickstart: the recommended configuration from the paper's conclusion --
// TSI individual feedback with Fair Share gateways -- on a single bottleneck.
//
//   $ quickstart [num_connections] [mu] [beta]
//
// Builds the model, iterates the synchronous dynamics from an arbitrary
// start, and shows convergence to the unique fair steady state
// (Theorems 3 + 4: guaranteed fair, and unilateral stability suffices).
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/ffc.hpp"
#include "exec/cli.hpp"
#include "report/table.hpp"

namespace {

constexpr std::size_t kMaxConnections = 1000000;

int usage() {
  std::cerr << "usage: quickstart [num_connections in 1..1000000] [mu>0] "
               "[beta in (0,1)]\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffc;

  std::size_t n = 4;
  double mu = 1.0;
  double beta = 0.5;
  if (argc > 4) return usage();
  if (argc > 1 && !exec::parse_size(argv[1], n)) return usage();
  if (argc > 2 && !exec::parse_double(argv[2], mu)) return usage();
  if (argc > 3 && !exec::parse_double(argv[3], beta)) return usage();
  if (n == 0 || n > kMaxConnections || mu <= 0.0 || beta <= 0.0 ||
      beta >= 1.0) {
    return usage();
  }

  // 1. A network: n connections through one gateway of service rate mu.
  auto topo = network::single_bottleneck(n, mu);

  // 2. The flow-control model: Fair Share gateways, individual congestion
  //    signals b_i = B(C_i) with B(C) = C/(1+C), and the TSI rate adjuster
  //    f = eta (beta - b) at every source.
  core::FlowControlModel model(
      topo, std::make_shared<queueing::FairShare>(),
      std::make_shared<core::RationalSignal>(),
      core::FeedbackStyle::Individual,
      std::make_shared<core::AdditiveTsi>(/*eta=*/0.2, beta));

  // 3. Iterate the synchronous dynamics from a deliberately unfair start.
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = 0.4 * mu * static_cast<double>(i + 1) /
               static_cast<double>(n * n);
  }

  report::TextTable table({"step", "r_0", "r_last", "b_0", "b_last"});
  table.set_title("Synchronous dynamics (individual feedback, Fair Share)");
  core::ModelWorkspace ws;
  for (int step = 0; step <= 60; ++step) {
    model.step(rates, ws);  // observes at `rates`, then updates
    const auto& signals = ws.state.combined_signals;
    if (step % 10 == 0) {
      table.add_row({std::to_string(step), report::fmt(rates.front(), 4),
                     report::fmt(rates.back(), 4),
                     report::fmt(signals.front(), 3),
                     report::fmt(signals.back(), 3)});
    }
    rates = ws.next;
  }
  table.print(std::cout);

  // 4. Compare against the closed-form fair steady state.
  const auto fair = core::fair_steady_state(model);
  const auto fairness = core::check_fairness(model, rates);
  std::cout << "\npredicted fair share per connection: "
            << report::fmt(fair[0], 5) << "  (rho_ss * mu / N = " << beta
            << " * " << mu << " / " << n << ")\n"
            << "reached rates are fair: "
            << report::fmt_bool(fairness.fair)
            << ", Jain index " << report::fmt(fairness.jain_index, 5) << "\n";
  return EXIT_SUCCESS;
}
