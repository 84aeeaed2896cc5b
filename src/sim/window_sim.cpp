#include "sim/window_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ffc::sim {

WindowNetworkSimulator::WindowNetworkSimulator(network::Topology topology,
                                               SimDiscipline discipline,
                                               WindowOptions options,
                                               std::uint64_t seed)
    : options_(checked(options, discipline)),
      engine_(std::move(topology), discipline, seed, *this),
      sources_(engine_.topology().num_connections()),
      rtt_stats_(sources_.size()),
      acks_(sources_.size(), 0),
      bits_(sources_.size(), 0) {
  for (network::ConnectionId i = 0; i < sources_.size(); ++i) {
    sources_[i].window = options_.initial_window;
    sources_[i].cycle_length = static_cast<std::uint64_t>(
        std::ceil(options_.initial_window));
    try_send(i);
  }
}

WindowOptions WindowNetworkSimulator::checked(const WindowOptions& options,
                                              SimDiscipline discipline) {
  // A finite max_window bounds the packets a source keeps in flight.
  if (!(options.bit_threshold >= 0.0) ||
      !(options.initial_window >= options.min_window) ||
      !(options.min_window >= 1.0) ||
      !(options.max_window >= options.initial_window) ||
      !std::isfinite(options.max_window) || !(options.increase > 0.0) ||
      !(options.decrease > 0.0) || !(options.decrease < 1.0)) {
    throw std::invalid_argument("WindowNetworkSimulator: invalid options");
  }
  if (discipline == SimDiscipline::FairShare) {
    // The preemptive Fair Share construction needs source RATES to
    // decompose; a window source has no rate parameter. Fair Queueing is
    // the discipline the paper itself points at for this setting.
    throw std::invalid_argument(
        "WindowNetworkSimulator: use FairQueueing instead of FairShare "
        "(window sources have no rate for the FS decomposition)");
  }
  return options;
}

void WindowNetworkSimulator::try_send(network::ConnectionId i) {
  SourceState& src = sources_[i];
  while (static_cast<double>(src.in_flight) < src.window) {
    ++src.in_flight;
    Packet packet;
    packet.id = engine_.next_packet_id_++;
    packet.connection = static_cast<std::uint32_t>(i);
    packet.hop = 0;
    packet.created = engine_.now();
    maybe_mark(packet);
    engine_.arrive_at_hop(std::move(packet));
  }
}

void WindowNetworkSimulator::maybe_mark(Packet& packet) const {
  const network::CsrIncidence& csr = topology().incidence();
  const GatewayServer& server =
      *engine_.servers_[csr.path(packet.connection)[packet.hop]];
  const double occupancy =
      options_.bit_rule == BitRule::AggregateQueue
          ? static_cast<double>(server.instantaneous_total())
          : static_cast<double>(server.instantaneous_occupancy(
                csr.local_index_at(packet.connection, packet.hop)));
  if (occupancy >= options_.bit_threshold) packet.congestion_bit = true;
}

void WindowNetworkSimulator::packet_departed(Packet packet) {
  double delay = engine_.leave_gateway(packet);
  if (packet.hop == topology().path(packet.connection).size()) {
    // Delivered now; the ACK returns over the path's propagation latency
    // (ACKs are small; they do not queue). Its payload -- creation time
    // and congestion bit -- rides inside the packet.
    ++engine_.delivered_[packet.connection];
    delay += topology().path_latency(packet.connection);
  }
  SimEvent event;
  event.kind = EventKind::Propagate;
  event.packet = packet;
  engine_.sim_.schedule_event_at(engine_.now() + delay, *this, event);
}

void WindowNetworkSimulator::handle_event(SimEvent& event) {
  Packet& packet = event.packet;
  if (packet.hop == topology().path(packet.connection).size()) {
    ack_arrived(packet.connection, packet.created, packet.congestion_bit);
    return;
  }
  maybe_mark(packet);
  engine_.arrive_at_hop(std::move(packet));
}

void WindowNetworkSimulator::ack_arrived(network::ConnectionId i,
                                         double created, bool bit) {
  SourceState& src = sources_[i];
  if (src.in_flight == 0) {
    throw std::logic_error("WindowNetworkSimulator: spurious ACK");
  }
  --src.in_flight;
  rtt_stats_[i].add(now() - created);
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

void WindowNetworkSimulator::reset_metrics() {
  engine_.reset_metrics();
  for (auto& s : rtt_stats_) s = stats::OnlineStats();
  for (auto& a : acks_) a = 0;
  for (auto& b : bits_) b = 0;
}

double WindowNetworkSimulator::window(network::ConnectionId i) const {
  return sources_.at(i).window;
}

void WindowNetworkSimulator::pin_window(network::ConnectionId i, double w) {
  if (!(w >= 1.0 && w <= options_.max_window)) {
    throw std::invalid_argument(
        "pin_window: window must be in [1, max_window]");
  }
  SourceState& src = sources_.at(i);
  src.adaptive = false;
  src.window = w;
  try_send(i);
}

double WindowNetworkSimulator::mean_rtt(network::ConnectionId i) const {
  return rtt_stats_.at(i).mean();
}

double WindowNetworkSimulator::bit_fraction(network::ConnectionId i) const {
  if (acks_.at(i) == 0) return 0.0;
  return static_cast<double>(bits_[i]) / static_cast<double>(acks_[i]);
}

}  // namespace ffc::sim
