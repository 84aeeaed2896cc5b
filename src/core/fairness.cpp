#include "core/fairness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffc::core {

double jain_index(const std::vector<double>& rates) {
  if (rates.empty()) {
    throw std::invalid_argument("jain_index: empty rate vector");
  }
  double sum = 0.0, sum_sq = 0.0;
  for (double r : rates) {
    if (std::isnan(r) || r < 0.0) {
      throw std::invalid_argument("jain_index: rates must be >= 0");
    }
    sum += r;
    sum_sq += r * r;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero allocation is (vacuously) even
  return sum * sum / (static_cast<double>(rates.size()) * sum_sq);
}

FairnessReport check_fairness(const FlowControlModel& model,
                              const std::vector<double>& rates, double tol) {
  ModelWorkspace ws;
  model.observe(rates, ws);
  FairnessReport report;
  report.jain_index = jain_index(rates);
  const auto& topo = model.topology();
  const network::CsrIncidence& csr = topo.incidence();

  // The criterion's "bottleneck" is the gateway that actually CONSTRAINS a
  // connection, which the individual congestion measure C^a_i identifies
  // (under an aggregate measure every saturated gateway on the path looks
  // identical, even ones where the connection holds a tiny share). So the
  // bottleneck relation is always derived from individual measures here,
  // regardless of the feedback style the model signals with.
  std::vector<double> individual(csr.num_entries());
  for (network::GatewayId a = 0; a < topo.num_gateways(); ++a) {
    const std::size_t offset = csr.gateway_offset(a);
    congestion_measures_into(FeedbackStyle::Individual,
                             {ws.state.queues.data() + offset, csr.fan_in(a)},
                             ws.congestion,
                             {individual.data() + offset, csr.fan_in(a)});
  }

  for (network::ConnectionId i = 0; i < topo.num_connections(); ++i) {
    const auto path = csr.path(i);
    const auto slots = csr.slots(i);
    // Find this connection's most-constraining congestion along its path.
    double worst = -1.0;
    for (std::size_t slot : slots) worst = std::max(worst, individual[slot]);
    for (std::size_t h = 0; h < path.size(); ++h) {
      const double here = individual[slots[h]];
      const bool is_bottleneck =
          std::isinf(worst) ? std::isinf(here)
                            : here >= worst - tol * (1.0 + std::fabs(worst));
      if (!is_bottleneck) continue;
      const network::GatewayId a = path[h];
      for (network::ConnectionId j : csr.connections_through(a)) {
        if (rates[j] > rates[i] * (1.0 + tol) + tol * topo.gateway(a).mu) {
          report.violations.push_back({i, a, j, rates[j] - rates[i]});
        }
      }
    }
  }
  report.fair = report.violations.empty();
  return report;
}

}  // namespace ffc::core
