#include "sim/server.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ffc::sim {

GatewayServer::GatewayServer(Simulator& sim, double mu, std::size_t num_local,
                             stats::Xoshiro256 rng, PacketSink* sink)
    : sim_(sim),
      mu_(mu),
      num_local_(num_local),
      rng_(rng),
      sink_(sink),
      occupancy_(num_local, stats::TimeWeightedStats(sim.now(), 0.0)) {
  if (!(mu > 0.0)) throw std::invalid_argument("GatewayServer: mu must be > 0");
  if (sink_ == nullptr) {
    throw std::invalid_argument("GatewayServer: null departure sink");
  }
}

void GatewayServer::handle_event(SimEvent& event) {
  if (event.kind == EventKind::ServiceComplete) {
    on_service_complete(event.generation);
  }
}

void GatewayServer::set_service_factor(double factor) {
  if (!std::isfinite(factor) || factor < 0.0) {
    throw std::invalid_argument(
        "GatewayServer: service factor must be finite and >= 0");
  }
  if (factor == service_factor_) return;  // no-op: keep RNG/calendar intact
  service_factor_ = factor;
  on_service_factor_changed();
}

void GatewayServer::schedule_completion_in(double dt,
                                           std::uint64_t generation) {
  SimEvent event;
  event.kind = EventKind::ServiceComplete;
  event.generation = generation;
  sim_.schedule_event_in(dt, *this, event);
}

void GatewayServer::occupancy_delta(std::size_t local_conn, int delta) {
  stats::TimeWeightedStats& occupancy = occupancy_.at(local_conn);
  // Packet counts are small integers, exact in a double.
  const double in_system = occupancy.value() + delta;
  if (in_system < 0.0) {
    throw std::logic_error("GatewayServer: negative occupancy");
  }
  // Every +1 is one accepted packet, every -1 one completed service; the
  // preemption path moves jobs between queues without touching occupancy,
  // so these are exact arrival/departure counts.
  if (delta > 0) {
    packets_arrived_ += static_cast<std::uint64_t>(delta);
  } else {
    packets_served_ += static_cast<std::uint64_t>(-delta);
  }
  total_in_system_ =
      static_cast<std::size_t>(static_cast<long>(total_in_system_) + delta);
  occupancy.update(sim_.now(), in_system);
}

double GatewayServer::mean_occupancy(std::size_t local_conn) const {
  return occupancy_.at(local_conn).time_average();
}

double GatewayServer::mean_total_occupancy() const {
  double total = 0.0;
  for (const auto& s : occupancy_) total += s.time_average();
  return total;
}

void GatewayServer::reset_metrics() {
  for (auto& s : occupancy_) {
    s.advance_to(sim_.now());
    s.reset(sim_.now());
  }
}

void GatewayServer::flush_metrics() {
  for (auto& s : occupancy_) s.advance_to(sim_.now());
}

// ---------------------------------------------------------------- FIFO ----

void FifoServer::arrival(Packet packet, std::size_t local_conn) {
  occupancy_delta(local_conn, +1);
  queue_.push_back(Job{std::move(packet), local_conn});
  if (!in_service_) start_service();
}

void FifoServer::start_service() {
  if (queue_.empty() || service_halted()) return;
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  const std::uint64_t gen = ++generation_;
  schedule_completion_in(sample_service_time(), gen);
}

void FifoServer::on_service_factor_changed() {
  ++generation_;  // invalidate any pending completion
  if (service_halted()) return;  // job (if any) parks until recovery
  if (in_service_) {
    schedule_completion_in(sample_service_time(), generation_);
  } else {
    start_service();
  }
}

void FifoServer::on_service_complete(std::uint64_t generation) {
  if (generation != generation_ || !in_service_) return;  // stale event
  Job job = std::move(*in_service_);
  in_service_.reset();
  occupancy_delta(job.local_conn, -1);
  deliver(std::move(job.packet));
  start_service();
}

// ------------------------------------------------------------ Priority ----

PriorityServer::PriorityServer(Simulator& sim, double mu,
                               std::size_t num_local, std::size_t num_classes,
                               stats::Xoshiro256 rng, PacketSink* sink)
    : GatewayServer(sim, mu, num_local, rng, sink), classes_(num_classes) {
  if (num_classes == 0) {
    throw std::invalid_argument("PriorityServer: need >= 1 class");
  }
}

void PriorityServer::arrival(Packet packet, std::size_t local_conn) {
  occupancy_delta(local_conn, +1);
  const std::size_t klass = packet.priority_class;
  if (klass >= classes_.num_classes()) {
    throw std::invalid_argument("PriorityServer: bad priority class");
  }
  classes_.push_back(klass, Job{std::move(packet), local_conn});

  if (!in_service_) {
    start_service();
  } else if (klass < in_service_class_) {
    // Preempt: the running job returns to the HEAD of its class queue; a
    // fresh exponential sample on resume is distributionally exact.
    ++generation_;  // invalidates the pending completion event
    classes_.push_front(in_service_class_, std::move(*in_service_));
    in_service_.reset();
    start_service();
  }
}

void PriorityServer::on_service_factor_changed() {
  ++generation_;  // invalidate any pending completion
  if (service_halted()) return;  // job (if any) parks until recovery
  if (in_service_) {
    schedule_completion_in(sample_service_time(), generation_);
  } else {
    start_service();
  }
}

void PriorityServer::start_service() {
  if (service_halted()) return;
  const std::size_t klass = classes_.next_nonempty(0);
  if (klass == ClassQueues<Job>::npos) return;
  in_service_ = classes_.pop_front(klass);
  in_service_class_ = klass;
  const std::uint64_t gen = ++generation_;
  schedule_completion_in(sample_service_time(), gen);
}

void PriorityServer::on_service_complete(std::uint64_t generation) {
  if (generation != generation_ || !in_service_) return;  // stale or preempted
  Job job = std::move(*in_service_);
  in_service_.reset();
  occupancy_delta(job.local_conn, -1);
  deliver(std::move(job.packet));
  start_service();
}

// ----------------------------------------------------------- FairShare ----

FairShareServer::FairShareServer(Simulator& sim, double mu,
                                 std::size_t num_local,
                                 stats::Xoshiro256 rng, PacketSink* sink)
    : PriorityServer(sim, mu, num_local, std::max<std::size_t>(1, num_local),
                     rng, sink),
      // The base keeps a copy of `rng`'s current state for service times;
      // derive an unrelated stream for class assignment by reseeding from a
      // draw (split() would hand back the very position the base copied).
      class_rng_(stats::Xoshiro256(rng.next() ^ 0xa5a5a5a55a5a5a5aULL)) {}

void FairShareServer::set_rates(std::span<const double> local_rates) {
  if (local_rates.size() != num_local()) {
    throw std::invalid_argument("FairShareServer: rate size mismatch");
  }
  queueing::FairShare::decompose_into(local_rates, decomposition_);
}

void FairShareServer::arrival(Packet packet, std::size_t local_conn) {
  if (local_conn >= num_local()) {
    throw std::out_of_range("FairShareServer: bad local connection");
  }
  if (decomposition_.num_connections() != num_local()) {
    throw std::logic_error("FairShareServer: set_rates was never called");
  }
  packet.priority_class = static_cast<std::uint32_t>(
      decomposition_.class_for(local_conn, class_rng_.uniform01()));
  PriorityServer::arrival(std::move(packet), local_conn);
}

}  // namespace ffc::sim
