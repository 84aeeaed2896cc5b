#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "network/csr.hpp"

namespace ffc::core {

FlowControlModel::FlowControlModel(
    network::Topology topology,
    std::shared_ptr<const queueing::ServiceDiscipline> discipline,
    std::shared_ptr<const SignalFunction> signal, FeedbackStyle style,
    std::vector<std::shared_ptr<const RateAdjustment>> adjusters)
    : topology_(std::move(topology)),
      discipline_(std::move(discipline)),
      signal_(std::move(signal)),
      style_(style),
      adjusters_(std::move(adjusters)) {
  validate_members();
}

FlowControlModel::FlowControlModel(
    network::Topology topology,
    std::shared_ptr<const queueing::ServiceDiscipline> discipline,
    std::shared_ptr<const SignalFunction> signal, FeedbackStyle style,
    std::shared_ptr<const RateAdjustment> adjuster)
    : topology_(std::move(topology)),
      discipline_(std::move(discipline)),
      signal_(std::move(signal)),
      style_(style),
      adjusters_(topology_.num_connections(), std::move(adjuster)) {
  validate_members();
}

void FlowControlModel::validate_members() {
  if (!discipline_) {
    throw std::invalid_argument("FlowControlModel: null discipline");
  }
  if (!signal_) throw std::invalid_argument("FlowControlModel: null signal");
  if (adjusters_.size() != topology_.num_connections()) {
    throw std::invalid_argument(
        "FlowControlModel: need one adjuster per connection");
  }
  for (const auto& adj : adjusters_) {
    if (!adj) throw std::invalid_argument("FlowControlModel: null adjuster");
  }
  path_latency_.resize(topology_.num_connections());
  for (network::ConnectionId i = 0; i < path_latency_.size(); ++i) {
    path_latency_[i] = topology_.path_latency(i);
  }
}

void FlowControlModel::validate_boundary(
    const std::vector<double>& rates) const {
  queueing::detail::count_validation();
  if (rates.size() != topology_.num_connections()) {
    throw std::invalid_argument("FlowControlModel: rate vector size mismatch");
  }
  for (double r : rates) {
    if (std::isnan(r) || std::isinf(r) || r < 0.0) {
      throw std::invalid_argument(
          "FlowControlModel: rates must be finite and >= 0");
    }
  }
}

void signal_stage_into(const network::CsrIncidence& csr, FeedbackStyle style,
                       const SignalFunction& signal, ModelWorkspace& ws) {
  NetworkState& state = ws.state;
  state.congestion.resize(csr.num_entries());
  state.signals.resize(csr.num_entries());
  for (network::GatewayId a = 0; a < csr.num_gateways(); ++a) {
    const std::size_t offset = csr.gateway_offset(a);
    const std::size_t n_local = csr.fan_in(a);
    const std::span<double> measures(state.congestion.data() + offset,
                                     n_local);
    congestion_measures_into(style, {state.queues.data() + offset, n_local},
                             ws.congestion, measures);
    // Batch signal application over the slice: ONE virtual call per gateway
    // instead of one per connection, so the concrete signal's contiguous
    // loop vectorizes (tools/check_vectorization.sh).
    signal.apply_into(measures, {state.signals.data() + offset, n_local});
  }
  network::reduce_max_over_paths_into(csr, state.signals,
                                      state.combined_signals);
}

void FlowControlModel::observe_into(const std::vector<double>& rates,
                                    ModelWorkspace& ws) const {
  const network::CsrIncidence& csr = topology_.incidence();
  NetworkState& state = ws.state;
  state.queues.resize(csr.num_entries());
  ws.sojourns.resize(csr.num_entries());

  // Distribute the rate vector into the flat gateway-major SoA buffer; each
  // gateway then reads its Gamma(a) slice as a span without copying, and
  // writes its queues and sojourns straight into the matching slices.
  network::gather_by_gateway_into(csr, rates, ws.local_rates);
  for (network::GatewayId a = 0; a < topology_.num_gateways(); ++a) {
    const std::size_t offset = csr.gateway_offset(a);
    const std::size_t n_local = csr.fan_in(a);
    const std::span<const double> local(ws.local_rates.data() + offset,
                                        n_local);
    const std::span<double> queues(state.queues.data() + offset, n_local);
    const double mu = topology_.gateway(a).mu;
    discipline_->queue_lengths_into(local, mu, ws.discipline, queues);
    discipline_->sojourn_times_into(
        local, mu, queues, ws.discipline,
        std::span<double>(ws.sojourns.data() + offset, n_local));
  }

  signal_stage_into(csr, style_, *signal_, ws);

  // Per-connection delay d_i = path latency (cached) + sum of per-hop
  // sojourns, as an SoA reduction over the CSR slot map.
  network::reduce_sum_over_paths_into(csr, ws.sojourns, state.delays);
  for (network::ConnectionId i = 0; i < state.delays.size(); ++i) {
    state.delays[i] += path_latency_[i];
  }
}

void FlowControlModel::step_into(const std::vector<double>& rates,
                                 ModelWorkspace& ws) const {
  observe_into(rates, ws);
  ws.next.resize(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double f = (*adjusters_[i])(rates[i], ws.state.combined_signals[i],
                                      ws.state.delays[i]);
    ws.next[i] = std::max(0.0, rates[i] + f);
  }
}

NetworkState FlowControlModel::observe(const std::vector<double>& rates) const {
  validate_boundary(rates);
  ModelWorkspace ws;
  observe_into(rates, ws);
  return std::move(ws.state);
}

void FlowControlModel::observe(const std::vector<double>& rates,
                               ModelWorkspace& ws) const {
  validate_boundary(rates);
  observe_into(rates, ws);
}

std::vector<double> FlowControlModel::step(
    const std::vector<double>& rates) const {
  validate_boundary(rates);
  ModelWorkspace ws;
  step_into(rates, ws);
  return std::move(ws.next);
}

const std::vector<double>& FlowControlModel::step(
    const std::vector<double>& rates, ModelWorkspace& ws) const {
  validate_boundary(rates);
  step_into(rates, ws);
  return ws.next;
}

const std::vector<double>& FlowControlModel::step_unchecked(
    const std::vector<double>& rates, ModelWorkspace& ws) const {
  step_into(rates, ws);
  return ws.next;
}

bool FlowControlModel::homogeneous_tsi() const {
  const auto first = adjusters_.front()->steady_signal();
  if (!first) return false;
  for (const auto& adj : adjusters_) {
    const auto b = adj->steady_signal();
    if (!b || *b != *first) return false;
  }
  return true;
}

FlowControlModel FlowControlModel::with_topology(
    network::Topology topology) const {
  if (topology.num_connections() != topology_.num_connections()) {
    throw std::invalid_argument(
        "with_topology: connection count must be preserved");
  }
  return FlowControlModel(std::move(topology), discipline_, signal_, style_,
                          adjusters_);
}

}  // namespace ffc::core
