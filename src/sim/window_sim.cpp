#include "sim/window_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/fair_queueing.hpp"
#include "stats/rng.hpp"

namespace ffc::sim {

WindowNetworkSimulator::WindowNetworkSimulator(network::Topology topology,
                                               SimDiscipline discipline,
                                               WindowOptions options,
                                               std::uint64_t seed)
    : topology_(std::move(topology)),
      options_(options),
      sources_(topology_.num_connections()),
      rtt_stats_(topology_.num_connections()),
      delivered_(topology_.num_connections(), 0),
      acks_(topology_.num_connections(), 0),
      bits_(topology_.num_connections(), 0) {
  if (!(options_.bit_threshold >= 0.0) ||
      !(options_.initial_window >= options_.min_window) ||
      !(options_.min_window >= 1.0) ||
      !(options_.max_window >= options_.initial_window) ||
      !(options_.increase > 0.0) || !(options_.decrease > 0.0) ||
      !(options_.decrease < 1.0)) {
    throw std::invalid_argument("WindowNetworkSimulator: invalid options");
  }

  const std::size_t num_gw = topology_.num_gateways();
  stats::Xoshiro256 master(seed);
  servers_.reserve(num_gw);
  for (network::GatewayId a = 0; a < num_gw; ++a) {
    const auto& gw = topology_.gateway(a);
    const std::size_t n_local = topology_.fan_in(a);
    stats::Xoshiro256 server_rng = master.split();
    switch (discipline) {
      case SimDiscipline::Fifo:
        servers_.push_back(std::make_unique<FifoServer>(
            sim_, gw.mu, n_local, server_rng,
            static_cast<PacketSink*>(this)));
        break;
      case SimDiscipline::FairShare:
        // The preemptive Fair Share construction needs source RATES to
        // decompose; a window source has no rate parameter. Fair Queueing
        // is the discipline the paper itself points at for this setting.
        throw std::invalid_argument(
            "WindowNetworkSimulator: use FairQueueing instead of FairShare "
            "(window sources have no rate for the FS decomposition)");
      case SimDiscipline::FairQueueing:
        servers_.push_back(std::make_unique<FairQueueingServer>(
            sim_, gw.mu, n_local, server_rng,
            static_cast<PacketSink*>(this)));
        break;
    }
  }

  for (network::ConnectionId i = 0; i < sources_.size(); ++i) {
    sources_[i].window = options_.initial_window;
    sources_[i].cycle_length = static_cast<std::uint64_t>(
        std::ceil(options_.initial_window));
    try_send(i);
  }
}

void WindowNetworkSimulator::try_send(network::ConnectionId i) {
  SourceState& src = sources_[i];
  while (static_cast<double>(src.in_flight) < src.window) {
    ++src.in_flight;
    Packet packet;
    packet.id = next_packet_id_++;
    packet.connection = i;
    packet.hop = 0;
    packet.created = sim_.now();
    const network::GatewayId a = topology_.path(i).front();
    const std::size_t local = topology_.incidence().local_indices(i)[0];
    maybe_mark(packet, a, local);
    servers_[a]->arrival(std::move(packet), local);
  }
}

void WindowNetworkSimulator::maybe_mark(Packet& packet, network::GatewayId a,
                                        std::size_t local) const {
  const double occupancy =
      options_.bit_rule == BitRule::AggregateQueue
          ? static_cast<double>(servers_[a]->instantaneous_total())
          : static_cast<double>(servers_[a]->instantaneous_occupancy(local));
  if (occupancy >= options_.bit_threshold) packet.congestion_bit = true;
}

void WindowNetworkSimulator::packet_departed(Packet packet) {
  const auto& path = topology_.path(packet.connection);
  const network::GatewayId a = path.at(packet.hop);
  const double latency = topology_.gateway(a).latency;
  const bool last_hop = packet.hop + 1 == path.size();
  packet.hop += 1;  // == path.size() marks the ACK leg
  packet.priority_class = 0;
  SimEvent event;
  event.kind = EventKind::Propagate;
  if (last_hop) {
    // Deliver, then return the ACK over the path's propagation latency
    // (ACKs are small; they do not queue). The ACK's payload -- creation
    // time and congestion bit -- rides inside the packet.
    const double ack_latency = latency + topology_.path_latency(
                                             packet.connection);
    ++delivered_[packet.connection];
    event.packet = packet;
    sim_.schedule_event_in(ack_latency, *this, event);
  } else {
    event.packet = packet;
    sim_.schedule_event_in(latency, *this, event);
  }
}

void WindowNetworkSimulator::handle_event(SimEvent& event) {
  if (event.kind != EventKind::Propagate) return;
  Packet& packet = event.packet;
  const auto& path = topology_.path(packet.connection);
  if (packet.hop == path.size()) {
    ack_arrived(packet.connection, packet.created, packet.congestion_bit);
    return;
  }
  const network::GatewayId next = path.at(packet.hop);
  const std::size_t local =
      topology_.incidence().local_indices(packet.connection)[packet.hop];
  maybe_mark(packet, next, local);
  servers_[next]->arrival(std::move(packet), local);
}

void WindowNetworkSimulator::ack_arrived(network::ConnectionId i,
                                         double created, bool bit) {
  SourceState& src = sources_[i];
  if (src.in_flight == 0) {
    throw std::logic_error("WindowNetworkSimulator: spurious ACK");
  }
  --src.in_flight;
  rtt_stats_[i].add(sim_.now() - created);
  ++acks_[i];
  if (bit) ++bits_[i];

  if (options_.adapt && src.adaptive) {
    ++src.acks_in_cycle;
    if (bit) ++src.bits_in_cycle;
    if (src.acks_in_cycle >= src.cycle_length) {
      adjust_window(i);
      src.acks_in_cycle = 0;
      src.bits_in_cycle = 0;
      src.cycle_length = static_cast<std::uint64_t>(
          std::max(1.0, std::ceil(src.window)));
    }
  }
  try_send(i);
}

void WindowNetworkSimulator::adjust_window(network::ConnectionId i) {
  SourceState& src = sources_[i];
  const bool congested =
      2 * src.bits_in_cycle >= src.acks_in_cycle;  // >= 50% bits set
  if (congested) {
    src.window *= options_.decrease;
  } else {
    src.window += options_.increase;
  }
  src.window = std::clamp(src.window, options_.min_window,
                          options_.max_window);
}

void WindowNetworkSimulator::run_for(double duration) {
  if (!(duration >= 0.0)) {
    throw std::invalid_argument("WindowNetworkSimulator: duration >= 0");
  }
  sim_.run_until(sim_.now() + duration);
}

void WindowNetworkSimulator::reset_metrics() {
  for (auto& server : servers_) server->reset_metrics();
  for (auto& s : rtt_stats_) s = stats::OnlineStats();
  for (auto& d : delivered_) d = 0;
  for (auto& a : acks_) a = 0;
  for (auto& b : bits_) b = 0;
  metrics_start_ = sim_.now();
}

double WindowNetworkSimulator::window(network::ConnectionId i) const {
  return sources_.at(i).window;
}

void WindowNetworkSimulator::pin_window(network::ConnectionId i, double w) {
  if (!(w >= 1.0)) {
    throw std::invalid_argument("pin_window: window must be >= 1");
  }
  SourceState& src = sources_.at(i);
  src.adaptive = false;
  src.window = w;
  try_send(i);
}

double WindowNetworkSimulator::throughput(network::ConnectionId i) const {
  const double span = sim_.now() - metrics_start_;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(delivered_.at(i)) / span;
}

double WindowNetworkSimulator::mean_rtt(network::ConnectionId i) const {
  return rtt_stats_.at(i).mean();
}

double WindowNetworkSimulator::bit_fraction(network::ConnectionId i) const {
  if (acks_.at(i) == 0) return 0.0;
  return static_cast<double>(bits_[i]) / static_cast<double>(acks_[i]);
}

double WindowNetworkSimulator::mean_queue(network::GatewayId a,
                                          network::ConnectionId i) const {
  const auto members = topology_.connections_through(a);
  const auto it = std::find(members.begin(), members.end(), i);
  if (it == members.end()) {
    throw std::invalid_argument(
        "WindowNetworkSimulator::mean_queue: connection not at gateway");
  }
  servers_[a]->flush_metrics();
  return servers_[a]->mean_occupancy(
      static_cast<std::size_t>(it - members.begin()));
}

std::uint64_t WindowNetworkSimulator::delivered(
    network::ConnectionId i) const {
  return delivered_.at(i);
}

}  // namespace ffc::sim
