// Gateway servers: exponential service under FIFO, preemptive priority, and
// Fair Share disciplines, with per-connection occupancy measurement.
//
// Every server measures, per local connection, the time-average number of
// packets in the system (queued + in service) -- the simulated counterpart
// of the analytic Q^a_i(r).
//
// Hot path (docs/PERFORMANCE.md): servers are EventHandlers; a pending
// service completion is a tagged ServiceComplete event carrying only the
// generation counter; the FIFO server queues jobs in a RingQueue and the
// priority server in per-class lists over one pooled node array
// (ClassQueues); departures go to a borrowed PacketSink -- so a warmed-up
// server processes packets without touching the allocator. FunctionSink
// adapts a lambda for tests and examples that don't want to implement the
// interface.
//
// The priority server finds the next class to serve in ClassQueues' bitmap
// of non-empty classes (count-trailing-zeros, one word per 64 classes), and
// the Fair Share server stores its class decomposition in O(fan-in) and
// picks a class by binary search: per-gateway memory is linear in the
// fan-in, and no event scans every class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "queueing/fair_share.hpp"
#include "sim/class_queues.hpp"
#include "sim/event.hpp"
#include "sim/packet.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace ffc::sim {

/// Where departing packets go. Borrowed by the server: the sink must
/// outlive it (the network simulators implement this interface themselves).
class PacketSink {
 public:
  virtual void packet_departed(Packet packet) = 0;

 protected:
  ~PacketSink() = default;  // interface only; never deleted through this
};

/// Adapts a std::function to PacketSink for tests / one-off wiring.
class FunctionSink final : public PacketSink {
 public:
  using Handler = std::function<void(Packet)>;

  explicit FunctionSink(Handler handler) : handler_(std::move(handler)) {
    if (!handler_) {
      throw std::invalid_argument("FunctionSink: null handler");
    }
  }

  void packet_departed(Packet packet) override {
    handler_(std::move(packet));
  }

 private:
  Handler handler_;
};

/// Base class: owns the clockwork shared by all disciplines (service-rate
/// sampling, occupancy accounting, departure delivery, tagged service-
/// completion events).
class GatewayServer : public EventHandler {
 public:
  /// `num_local` is the number of connections routed through this gateway;
  /// arrivals must carry local connection indices via the translation the
  /// caller performs (see NetworkSimulator). `sink` is borrowed and must be
  /// non-null and outlive the server.
  GatewayServer(Simulator& sim, double mu, std::size_t num_local,
                stats::Xoshiro256 rng, PacketSink* sink);
  virtual ~GatewayServer() = default;

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// A packet of local connection `local_conn` arrives now.
  virtual void arrival(Packet packet, std::size_t local_conn) = 0;

  /// Routes ServiceComplete events to on_service_complete.
  void handle_event(SimEvent& event) final;

  /// Time-average number in system for a local connection.
  double mean_occupancy(std::size_t local_conn) const;

  /// Packets in the system right now, across all connections. Used by the
  /// windowed simulator's DECbit rule (set the congestion bit when the
  /// gateway's queue is at or above a threshold).
  std::size_t instantaneous_total() const { return total_in_system_; }

  /// Packets of one local connection in the system right now (the
  /// "selective" / individual DECbit rule marks based on this).
  std::size_t instantaneous_occupancy(std::size_t local_conn) const {
    return static_cast<std::size_t>(occupancy_.at(local_conn).value());
  }

  /// Total time-average number in system across connections.
  double mean_total_occupancy() const;

  /// Lifetime packets accepted / served by this gateway. Unlike the
  /// occupancy integrators these are NOT cleared by reset_metrics(): they
  /// are run-manifest counters, not per-epoch statistics.
  std::uint64_t packets_arrived() const { return packets_arrived_; }
  std::uint64_t packets_served() const { return packets_served_; }

  /// Scales the effective service rate: new service times are sampled at
  /// mu * factor. factor == 0 halts service entirely (a fault-layer outage)
  /// until a positive factor is restored; the in-flight job, if any, is
  /// re-timed under the new factor on every change (service is exponential,
  /// so re-sampling is distributionally exact for rate changes and realizes
  /// the halt for outages). factor must be finite and >= 0; setting the
  /// current factor again is a no-op (no RNG draw, no event).
  void set_service_factor(double factor);
  double service_factor() const { return service_factor_; }

  /// Discards occupancy history (warm-up removal / epoch reset).
  void reset_metrics();

  /// Advances the occupancy integrators to the current time (call before
  /// reading statistics).
  void flush_metrics();

  double mu() const { return mu_; }
  std::size_t num_local() const { return num_local_; }

 protected:
  /// The completion of the job whose schedule_completion_in carried this
  /// generation; stale generations (preempted / superseded) must be ignored.
  virtual void on_service_complete(std::uint64_t generation) = 0;

  /// The service factor just changed (set_service_factor). The discipline
  /// must invalidate any pending completion (bump its generation) and, if
  /// service is not halted, re-time the job in service -- or start one if
  /// it was stalled by an outage.
  virtual void on_service_factor_changed() = 0;

  /// True while an outage (factor == 0) is in force: disciplines must not
  /// start service, leaving jobs queued until recovery.
  bool service_halted() const { return service_factor_ == 0.0; }

  /// Schedules a tagged ServiceComplete event `dt` from now.
  void schedule_completion_in(double dt, std::uint64_t generation);

  Simulator& sim() { return sim_; }
  /// Draws a service time at the effective rate mu * factor. Must not be
  /// called while service is halted (exponential needs a positive rate).
  double sample_service_time() {
    return rng_.exponential(mu_ * service_factor_);
  }
  /// Draws a service time at the nominal rate mu: a packet's size, which a
  /// later service factor scales but never redraws. Safe during an outage.
  double sample_nominal_service_time() { return rng_.exponential(mu_); }
  void occupancy_delta(std::size_t local_conn, int delta);
  void deliver(Packet packet) { sink_->packet_departed(std::move(packet)); }

 private:
  Simulator& sim_;
  double mu_;
  double service_factor_ = 1.0;
  std::size_t num_local_;
  stats::Xoshiro256 rng_;
  PacketSink* sink_;
  std::size_t total_in_system_ = 0;
  std::uint64_t packets_arrived_ = 0;
  std::uint64_t packets_served_ = 0;
  /// Per local connection; value() is its packets in the system right now.
  std::vector<stats::TimeWeightedStats> occupancy_;
};

/// First-in first-out single server.
class FifoServer final : public GatewayServer {
 public:
  using GatewayServer::GatewayServer;
  void arrival(Packet packet, std::size_t local_conn) override;

 protected:
  void on_service_complete(std::uint64_t generation) override;
  void on_service_factor_changed() override;

 private:
  void start_service();

  struct Job {
    Packet packet;
    std::size_t local_conn = 0;
  };
  RingQueue<Job> queue_;
  std::optional<Job> in_service_;
  std::uint64_t generation_ = 0;
};

/// Preemptive-resume priority server; class 0 preempts everything below.
/// Service is exponential, so "resume" draws a fresh sample -- statistically
/// identical by memorylessness.
class PriorityServer : public GatewayServer {
 public:
  PriorityServer(Simulator& sim, double mu, std::size_t num_local,
                 std::size_t num_classes, stats::Xoshiro256 rng,
                 PacketSink* sink);

  /// Enqueues into `packet.priority_class`.
  void arrival(Packet packet, std::size_t local_conn) override;

 protected:
  void on_service_complete(std::uint64_t generation) override;
  void on_service_factor_changed() override;

 private:
  void start_service();

  struct Job {
    Packet packet;
    std::size_t local_conn = 0;
  };

  /// One FIFO list per priority class over one node pool.
  ClassQueues<Job> classes_;
  std::optional<Job> in_service_;
  std::size_t in_service_class_ = 0;
  std::uint64_t generation_ = 0;
};

/// Fair Share: the Table-1 decomposition realized by random splitting.
/// Each arriving packet of local connection k is assigned priority class
/// j <= position(k) with probability (r_(j) - r_(j-1)) / r_k -- splitting a
/// Poisson stream this way yields exactly the independent Poisson
/// substreams of the paper's construction. Rates must be kept current via
/// set_rates(). The server keeps only the compact decomposition (O(fan-in)
/// memory); set_rates is O(fan-in log fan-in) and the class pick on each
/// arrival a binary search, O(log fan-in).
class FairShareServer final : public PriorityServer {
 public:
  FairShareServer(Simulator& sim, double mu, std::size_t num_local,
                  stats::Xoshiro256 rng, PacketSink* sink);

  /// Updates the per-connection rates driving the class decomposition.
  /// Reuses the decomposition's buffers: allocation-free once warm.
  void set_rates(std::span<const double> local_rates);

  void arrival(Packet packet, std::size_t local_conn) override;

 private:
  stats::Xoshiro256 class_rng_;
  /// The Table-1 decomposition of the current local rates; empty until
  /// set_rates is called.
  queueing::FairShareDecomposition decomposition_;
};

}  // namespace ffc::sim
