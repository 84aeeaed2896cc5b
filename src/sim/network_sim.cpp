#include "sim/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/fair_queueing.hpp"

namespace ffc::sim {

NetworkSimulator::NetworkSimulator(network::Topology topology,
                                   SimDiscipline discipline,
                                   std::uint64_t seed)
    : NetworkSimulator(std::move(topology), discipline, seed,
                       faults::FaultPlan{}) {}

NetworkSimulator::NetworkSimulator(network::Topology topology,
                                   SimDiscipline discipline,
                                   std::uint64_t seed,
                                   faults::FaultPlan plan)
    : topology_(std::move(topology)), discipline_(discipline) {
  build(seed, plan, *this);
}

NetworkSimulator::NetworkSimulator(network::Topology topology,
                                   SimDiscipline discipline,
                                   std::uint64_t seed, PacketSink& sink)
    : topology_(std::move(topology)), discipline_(discipline) {
  build(seed, faults::FaultPlan{}, sink);
}

void NetworkSimulator::build(std::uint64_t seed,
                             const faults::FaultPlan& plan,
                             PacketSink& sink) {
  const std::size_t num_gw = topology_.num_gateways();
  const std::size_t num_conn = topology_.num_connections();
  if (!plan.empty()) plan.validate(num_gw, num_conn);

  std::size_t longest_path = 0;
  for (network::ConnectionId i = 0; i < num_conn; ++i) {
    longest_path = std::max(longest_path, topology_.path(i).size());
  }
  std::size_t widest_fan_in = 0;
  for (network::GatewayId a = 0; a < num_gw; ++a) {
    widest_fan_in = std::max(widest_fan_in, topology_.fan_in(a));
  }
  check_packet_field_range(num_conn, longest_path, widest_fan_in);

  delay_stats_.resize(num_conn);
  delay_samples_.resize(num_conn);
  delivered_.assign(num_conn, 0);
  source_active_.assign(num_conn, 1);

  // Streams split in a fixed order: servers by gateway, then sources by
  // connection.
  stats::Xoshiro256 master_rng(seed);
  servers_.resize(num_gw);
  for (network::GatewayId a = 0; a < num_gw; ++a) {
    const auto& gw = topology_.gateway(a);
    const std::size_t n_local = topology_.fan_in(a);
    stats::Xoshiro256 server_rng = master_rng.split();
    switch (discipline_) {
      case SimDiscipline::Fifo:
        servers_[a] = std::make_unique<FifoServer>(sim_, gw.mu, n_local,
                                                   server_rng, &sink);
        break;
      case SimDiscipline::FairShare:
        servers_[a] = std::make_unique<FairShareServer>(
            sim_, gw.mu, n_local, server_rng, &sink);
        break;
      case SimDiscipline::FairQueueing:
        servers_[a] = std::make_unique<FairQueueingServer>(
            sim_, gw.mu, n_local, server_rng, &sink);
        break;
    }
  }

  sources_.resize(num_conn);
  for (Source& source : sources_) source.rng = master_rng.split();

  if (!plan.empty()) {
    impaired_ = true;
    compile_fault_plan(plan);
  }
}

void NetworkSimulator::compile_fault_plan(const faults::FaultPlan& plan) {
  // Flatten the schedule: each window contributes an entry action at its
  // own factor plus a recovery action back to 1.0, each churn pair a
  // SourceDown and (if the rejoin is finite) a SourceUp.
  std::vector<FaultAction> actions;
  for (const faults::GatewayFault& f : plan.gateway_faults) {
    actions.push_back(
        {f.start, FaultAction::Kind::GatewayFactor, f.gateway, f.factor});
    actions.push_back({f.start + f.duration,
                       FaultAction::Kind::GatewayFactor, f.gateway, 1.0});
  }
  for (const faults::SourceChurn& c : plan.churn) {
    actions.push_back(
        {c.leave, FaultAction::Kind::SourceDown, c.connection, 0.0});
    if (std::isfinite(c.rejoin)) {
      actions.push_back(
          {c.rejoin, FaultAction::Kind::SourceUp, c.connection, 1.0});
    }
  }
  // Stable by time: simultaneous actions fire in plan order, and the
  // calendar's (time, seq) FIFO contract preserves that order on dispatch.
  std::stable_sort(
      actions.begin(), actions.end(),
      [](const FaultAction& a, const FaultAction& b) { return a.time < b.time; });
  for (const FaultAction& action : actions) {
    SimEvent event;
    event.kind = EventKind::Fault;
    event.index = static_cast<std::uint32_t>(fault_actions_.size());
    fault_actions_.push_back(action);
    sim_.schedule_event_in(action.time - sim_.now(), *this, event);
  }
}

void NetworkSimulator::apply_fault_action(std::size_t action_index) {
  const FaultAction& action = fault_actions_.at(action_index);
  switch (action.kind) {
    case FaultAction::Kind::GatewayFactor: {
      servers_.at(action.target)->set_service_factor(action.factor);
      if (action.factor == 0.0) {
        ++fault_counters_.gateway_outages;
      } else if (action.factor < 1.0) {
        ++fault_counters_.gateway_degradations;
      } else {
        ++fault_counters_.gateway_recoveries;
      }
      return;
    }
    case FaultAction::Kind::SourceDown: {
      if (!source_active_.at(action.target)) return;  // already gone
      source_active_[action.target] = 0;
      ++sources_[action.target].generation;  // kills the pending arrival
      ++fault_counters_.source_leaves;
      refresh_fair_share_rates();
      return;
    }
    case FaultAction::Kind::SourceUp: {
      if (source_active_.at(action.target)) return;  // never left
      source_active_[action.target] = 1;
      refresh_fair_share_rates();
      ++fault_counters_.source_joins;
      const std::uint64_t gen = ++sources_[action.target].generation;
      if (sources_[action.target].rate > 0.0) {
        schedule_next_arrival(action.target, gen);
      }
      return;
    }
  }
}

void NetworkSimulator::refresh_fair_share_rates() {
  if (discipline_ != SimDiscipline::FairShare) return;
  for (network::GatewayId a = 0; a < topology_.num_gateways(); ++a) {
    const auto& members = topology_.connections_through(a);
    local_rates_.resize(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      const network::ConnectionId i = members[k];
      local_rates_[k] = source_active_[i] ? sources_[i].rate : 0.0;
    }
    static_cast<FairShareServer*>(servers_[a].get())->set_rates(local_rates_);
  }
}

void NetworkSimulator::set_rates(const std::vector<double>& rates) {
  if (rates.size() != topology_.num_connections()) {
    throw std::invalid_argument("NetworkSimulator: rate size mismatch");
  }
  for (double r : rates) {
    if (std::isnan(r) || std::isinf(r) || r < 0.0) {
      throw std::invalid_argument(
          "NetworkSimulator: rates must be finite and >= 0");
    }
  }
  for (network::ConnectionId i = 0; i < rates.size(); ++i) {
    sources_[i].rate = rates[i];
  }
  refresh_fair_share_rates();

  // Restart every source process under the new rate; stale arrival
  // events are invalidated by the generation counter. Churned-out sources
  // keep their installed rate but stay silent until their rejoin fires.
  for (network::ConnectionId i = 0; i < sources_.size(); ++i) {
    const std::uint64_t gen = ++sources_[i].generation;
    if (sources_[i].rate > 0.0 && source_active_[i]) {
      schedule_next_arrival(i, gen);
    }
  }
}

void NetworkSimulator::schedule_next_arrival(network::ConnectionId i,
                                             std::uint64_t gen) {
  Source& source = sources_[i];
  const double gap = source.rng.exponential(source.rate);
  SimEvent event;
  event.kind = EventKind::Arrival;
  event.index = static_cast<std::uint32_t>(i);
  event.generation = gen;
  sim_.schedule_event_in(gap, *this, event);
}

void NetworkSimulator::handle_event(SimEvent& event) {
  switch (event.kind) {
    case EventKind::Arrival: {
      const network::ConnectionId i = event.index;
      if (event.generation != sources_[i].generation) return;  // re-rated
      Packet packet;
      packet.id = next_packet_id_++;
      packet.connection = event.index;
      packet.hop = 0;
      packet.created = sim_.now();
      arrive_at_hop(std::move(packet));
      schedule_next_arrival(i, event.generation);
      return;
    }
    case EventKind::Propagate: {
      Packet& packet = event.packet;
      const auto path = topology_.path(packet.connection);
      if (packet.hop == path.size()) {
        // Ran off the end of the path: delivered to the sink.
        const network::ConnectionId i = packet.connection;
        const double delay = sim_.now() - packet.created;
        delay_stats_[i].add(delay);
        if (delay_sampling_ && delay_samples_[i].size() < kMaxDelaySamples) {
          delay_samples_[i].push_back(delay);
        }
        ++delivered_[i];
        ++packets_delivered_total_;
      } else {
        arrive_at_hop(std::move(packet));
      }
      return;
    }
    case EventKind::Fault:
      apply_fault_action(event.index);
      return;
    default:
      return;
  }
}

void NetworkSimulator::arrive_at_hop(Packet packet) {
  const auto path = topology_.path(packet.connection);
  const network::GatewayId a = path[packet.hop];
  const std::size_t local =
      topology_.incidence().local_index_at(packet.connection, packet.hop);
  servers_[a]->arrival(std::move(packet), local);
}

double NetworkSimulator::leave_gateway(Packet& packet) const {
  const auto path = topology_.path(packet.connection);
  const double latency = topology_.gateway(path[packet.hop]).latency;
  packet.hop += 1;
  packet.priority_class = 0;  // classes are per-gateway
  return latency;
}

void NetworkSimulator::packet_departed(Packet packet) {
  const double latency = leave_gateway(packet);
  SimEvent event;
  event.kind = EventKind::Propagate;
  event.packet = packet;
  sim_.schedule_event_at(sim_.now() + latency, *this, event);
}

void NetworkSimulator::run_for(double duration) {
  if (!(duration >= 0.0) || std::isinf(duration)) {
    throw std::invalid_argument(
        "NetworkSimulator: duration must be finite and >= 0");
  }
  sim_.run_until(sim_.now() + duration);
}

void NetworkSimulator::reset_metrics() {
  for (auto& server : servers_) server->reset_metrics();
  for (auto& s : delay_stats_) s = stats::OnlineStats();
  for (auto& samples : delay_samples_) samples.clear();
  for (auto& d : delivered_) d = 0;
  metrics_start_ = sim_.now();
}

double NetworkSimulator::mean_queue(network::GatewayId a,
                                    network::ConnectionId i) const {
  if (a >= topology_.num_gateways()) {
    throw std::out_of_range("NetworkSimulator::mean_queue: bad gateway id");
  }
  if (const auto k = topology_.incidence().local_index(i, a)) {
    servers_[a]->flush_metrics();
    return servers_[a]->mean_occupancy(*k);
  }
  throw std::invalid_argument(
      "NetworkSimulator::mean_queue: connection not at gateway");
}

void NetworkSimulator::mean_queues_into(std::vector<double>& flat) const {
  const network::CsrIncidence& csr = topology_.incidence();
  flat.resize(csr.num_entries());
  for (network::GatewayId a = 0; a < servers_.size(); ++a) {
    servers_[a]->flush_metrics();
    const std::size_t offset = csr.gateway_offset(a);
    for (std::size_t k = 0; k < csr.fan_in(a); ++k) {
      flat[offset + k] = servers_[a]->mean_occupancy(k);
    }
  }
}

double NetworkSimulator::mean_total_queue(network::GatewayId a) const {
  servers_.at(a)->flush_metrics();
  return servers_[a]->mean_total_occupancy();
}

double NetworkSimulator::mean_delay(network::ConnectionId i) const {
  return delay_stats_.at(i).mean();
}

double NetworkSimulator::throughput(network::ConnectionId i) const {
  const double span = sim_.now() - metrics_start_;
  if (span <= 0.0) return 0.0;
  return static_cast<double>(delivered_.at(i)) / span;
}

std::uint64_t NetworkSimulator::delivered(network::ConnectionId i) const {
  return delivered_.at(i);
}

const std::vector<double>& NetworkSimulator::delay_samples(
    network::ConnectionId i) const {
  return delay_samples_.at(i);
}

void NetworkSimulator::collect_metrics(obs::MetricRegistry& registry) const {
  registry.add("des.events_processed", sim_.events_processed());
  registry.set_max("des.calendar_high_water", sim_.calendar_high_water());
  registry.add("net.packets_generated", packets_generated());
  registry.add("net.packets_delivered", packets_delivered_total_);
  std::uint64_t served = 0;
  for (network::GatewayId a = 0; a < servers_.size(); ++a) {
    servers_[a]->flush_metrics();
    const std::string prefix = "net.gateway" + std::to_string(a) + ".";
    registry.add(prefix + "packets_served", servers_[a]->packets_served());
    registry.set_gauge(prefix + "mean_queue",
                       servers_[a]->mean_total_occupancy());
    served += servers_[a]->packets_served();
  }
  registry.add("net.packets_served", served);
  if (impaired_) fault_counters_.collect(registry);
}

}  // namespace ffc::sim
