// Multi-gateway fairness: the "parking lot" topology.
//
//   $ parking_lot [hops] [cross_per_hop] [beta]
//
// One long connection traverses every gateway while short cross connections
// load each hop. Individual feedback finds the max-min fair allocation
// (Theorem 3): the long connection gets exactly one bottleneck share, not
// one share per hop, and the cross traffic fills the rest.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/ffc.hpp"
#include "exec/cli.hpp"
#include "report/table.hpp"

namespace {

constexpr std::size_t kMaxHops = 1000;
constexpr std::size_t kMaxCross = 1000;

int usage() {
  std::cerr << "usage: parking_lot [hops in 1..1000] "
               "[cross_per_hop in 0..1000] [beta in (0,1)]\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffc;

  std::size_t hops = 4;
  std::size_t cross = 2;
  double beta = 0.6;
  if (argc > 4) return usage();
  if (argc > 1 && !exec::parse_size(argv[1], hops)) return usage();
  if (argc > 2 && !exec::parse_size(argv[2], cross)) return usage();
  if (argc > 3 && !exec::parse_double(argv[3], beta)) return usage();
  if (hops == 0 || hops > kMaxHops || cross > kMaxCross || beta <= 0.0 ||
      beta >= 1.0) {
    return usage();
  }

  const auto topo = network::parking_lot(hops, cross, /*mu=*/1.0,
                                         /*latency=*/0.05);
  std::cout << "parking lot: " << topo.summary() << " (connection 0 spans "
            << hops << " hops)\n\n";

  core::FlowControlModel model(
      topo, std::make_shared<queueing::FairShare>(),
      std::make_shared<core::RationalSignal>(),
      core::FeedbackStyle::Individual,
      std::make_shared<core::AdditiveTsi>(0.1, beta));

  core::FixedPointOptions opts;
  opts.damping = 0.5;
  const auto result = core::solve_fixed_point(
      model, std::vector<double>(topo.num_connections(), 0.01), opts);
  if (!result.converged) {
    std::cerr << "iteration did not converge\n";
    return EXIT_FAILURE;
  }

  const auto fair = core::fair_steady_state(model);
  const auto state = model.observe(result.rates);

  report::TextTable table(
      {"connection", "hops", "r_ss (iterated)", "r_ss (water-filling)",
       "bottleneck gw", "round-trip delay"});
  table.set_title("Steady state (individual feedback + Fair Share)");
  const network::CsrIncidence& csr = topo.incidence();
  for (std::size_t i = 0; i < result.rates.size(); ++i) {
    // The first bottleneck hop (the last hop if none matched).
    const auto slots = csr.slots(i);
    std::size_t h = 0;
    while (h + 1 < slots.size() && !core::is_bottleneck(state, i, slots[h])) {
      ++h;
    }
    table.add_row({std::to_string(i), std::to_string(topo.path(i).size()),
                   report::fmt(result.rates[i], 4), report::fmt(fair[i], 4),
                   std::to_string(csr.path(i)[h]),
                   report::fmt(state.delays[i], 3)});
  }
  table.print(std::cout);

  const double share = beta / static_cast<double>(cross + 1);
  std::cout << "\nEvery gateway carries the long connection plus " << cross
            << " cross connections, so max-min gives everyone\n"
            << "rho_ss * mu / (cross+1) = " << report::fmt(share, 4)
            << " -- the long connection pays ONE bottleneck share, not "
            << hops << ".\n"
            << "Its delay is higher (it queues at every hop), but its "
               "throughput share is protected.\n";

  const auto fairness = core::check_fairness(model, result.rates);
  std::cout << "\nallocation fair per the paper's criterion: "
            << report::fmt_bool(fairness.fair) << "\n";
  return fairness.fair ? EXIT_SUCCESS : EXIT_FAILURE;
}
