// des_fairshare: an open-loop packet DES of a fixed random network under
// Fair Share service, every gateway at about half load; the workload seed
// seeds the DES. The set-up-, memory- and event-bound use of `sim`: the
// engine's per-gateway connection index, the Fair Share class
// decomposition on set_rates, and the class pick on every arrival. `core` is bypassed -- the Poisson rates
// come from the topology alone.
//
// Checks (E8's band): each gateway's time-average total occupancy is within
// 0.05 + 15% of the M/M/1 value rho/(1-rho); after the sources stop and
// the network drains, every generated packet has been delivered.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "network/builders.hpp"
#include "obs/metrics.hpp"
#include "sim/network_sim.hpp"
#include "stats/rng.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr std::size_t kGateways = 100;
constexpr std::size_t kConnections = 20000;
constexpr std::size_t kMaxPath = 4;
constexpr double kLoad = 0.5;
constexpr double kWarmup = 2.0;
constexpr double kMeasure = 25.0;
constexpr double kDrain = 50.0;
/// The topology is fixed, so every seed simulates the same network and the
/// work of a run does not depend on which network a seed happens to draw.
constexpr std::uint64_t kTopologySeed = 20260807;

struct State {
  std::vector<double> rates;
  std::unique_ptr<sim::NetworkSimulator> engine;
};

network::Topology random_network() {
  stats::Xoshiro256 rng(kTopologySeed);
  network::RandomTopologyParams params;
  params.num_gateways = kGateways;
  params.num_connections = kConnections;
  params.max_path_length = kMaxPath;
  // Capacities of the order of the expected fan-in keep every connection's
  // rate O(1), so the event count does not depend on the network size.
  const double fan_in = double(kConnections) * (1.0 + double(kMaxPath)) /
                        2.0 / double(kGateways);
  params.mu_min = 0.8 * fan_in;
  params.mu_max = 1.2 * fan_in;
  return network::random_topology(rng, params);
}

/// Each connection sends at kLoad times the equal share of its tightest
/// gateway, so no gateway exceeds load kLoad and most sit close to it.
std::vector<double> half_load_rates(const network::Topology& topo) {
  std::vector<double> rates(topo.num_connections());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double share = std::numeric_limits<double>::infinity();
    for (network::GatewayId a : topo.path(i)) {
      share = std::min(share, topo.gateway(a).mu / double(topo.fan_in(a)));
    }
    rates[i] = kLoad * share;
  }
  return rates;
}

void build(State& s, std::uint64_t seed) {
  s = State{};  // release the previous engine before building the next
  network::Topology topology = in_span(
      "network.random_topology", [] { return random_network(); });
  s.rates = half_load_rates(topology);
  s.engine = in_span("sim.construct", [&] {
    auto engine = std::make_unique<sim::NetworkSimulator>(
        std::move(topology), sim::SimDiscipline::FairShare, seed);
    engine->set_delay_sampling(false);
    return engine;
  });
  in_span("sim.set_rates", [&] { s.engine->set_rates(s.rates); });
}

}  // namespace

void run_des_fairshare(Harness& h) {
  const std::uint64_t seed = h.options().seed;
  State state;
  bool first = true;
  h.measure(1, HostProbe::kWhole, [&] { build(state, seed); }, [&](bool) {
    sim::NetworkSimulator& engine = *state.engine;
    const network::Topology& topo = engine.topology();
    if (first) {
      h.value("sim.rss_after_setup_mb", h.peak_rss_mb());
      double slots = 0.0;
      for (std::size_t i = 0; i < topo.num_connections(); ++i) {
        slots += double(topo.path(i).size());
      }
      h.value("network.slots", slots);
      first = false;
    }
    const double t = h.timed([&] {
      in_span("sim.run_for", [&] { engine.run_for(kWarmup); });
      in_span("sim.reset_metrics", [&] { engine.reset_metrics(); });
      in_span("sim.run_for", [&] { engine.run_for(kMeasure); });
    });

    std::vector<double> load(topo.num_gateways(), 0.0);
    for (std::size_t i = 0; i < topo.num_connections(); ++i) {
      for (network::GatewayId a : topo.path(i)) load[a] += state.rates[i];
    }
    double worst = 0.0;  // largest share of its band a gateway uses
    for (network::GatewayId a = 0; a < topo.num_gateways(); ++a) {
      const double rho = load[a] / topo.gateway(a).mu;
      const double expected = rho / (1.0 - rho);
      const double measured = engine.mean_total_queue(a);
      const double band = 0.05 + 0.15 * expected;
      worst = std::max(worst, std::fabs(measured - expected) / band);
      h.check(std::fabs(measured - expected) <= band,
              "gateway " + std::to_string(a) + ": mean queue " +
                  std::to_string(measured) + " outside the band around " +
                  std::to_string(expected));
      h.fingerprint(measured);
    }
    obs::MetricRegistry registry;
    engine.collect_metrics(registry);
    h.expect_same("sim.events", double(engine.events_processed()));
    h.expect_same("sim.calendar_high_water",
                  double(registry.high_water("des.calendar_high_water")));
    std::fprintf(stderr,
                 "des_fairshare: %llu events in %.3f s, worst gateway at "
                 "%.2f of its band\n",
                 static_cast<unsigned long long>(engine.events_processed()), t,
                 worst);

    // Conservation: stop the sources and drain; nothing may be lost.
    engine.set_rates(std::vector<double>(topo.num_connections(), 0.0));
    engine.run_for(kDrain);
    h.check(engine.packets_delivered_total() == engine.packets_generated(),
            "delivered " + std::to_string(engine.packets_delivered_total()) +
                " of " + std::to_string(engine.packets_generated()) +
                " generated packets after draining");
    return t;
  });
}

}  // namespace perfbench
