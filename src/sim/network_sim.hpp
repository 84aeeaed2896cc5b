// Packet-level simulation of a whole topology (§2.1's network model).
//
// Each connection is a Poisson source whose packets traverse the gateway
// path y(i); every gateway is an exponential server (FIFO or Fair Share)
// followed by the line's constant latency; delivered packets are absorbed by
// a per-connection sink recording one-way delay and throughput.
//
// This simulator validates the analytic model's two §2 approximations --
// per-connection queue formulas Q^a_i(r) and Poisson-through-the-network --
// and drives the closed-loop experiments in feedback_sim.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_plan.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"

namespace ffc::sim {

/// Which gateway discipline the simulated servers implement.
/// FairQueueing is the §4 "realistic" approximation of Fair Share
/// (non-preemptive, self-clocked packet tags; see sim/fair_queueing.hpp).
enum class SimDiscipline { Fifo, FairShare, FairQueueing };

/// Implements PacketSink (gateway departures come straight back, no closure
/// per packet) and EventHandler (source arrivals and line propagation are
/// tagged events), so a warmed-up simulation runs without heap allocation --
/// see docs/PERFORMANCE.md.
///
/// It is also the engine under WindowNetworkSimulator, whose ACK-clocked
/// sources take the servers' departures in place of the Poisson sources'
/// forwarding.
class NetworkSimulator : private PacketSink, private EventHandler {
 public:
  /// Builds the simulation; all sources start silent (rate 0) until
  /// set_rates() is called.
  NetworkSimulator(network::Topology topology, SimDiscipline discipline,
                   std::uint64_t seed);

  /// Same, with a fault plan (docs/FAULTS.md): the plan's gateway windows
  /// and source churn compile into tagged Fault events on the calendar at
  /// construction. An empty plan is bitwise-identical to the plain
  /// constructor -- no events, no extra RNG draws, no extra metrics. The
  /// plan's signal-path fields are ignored here (they impair the feedback
  /// loop, which lives in ClosedLoopSimulator / run_async).
  NetworkSimulator(network::Topology topology, SimDiscipline discipline,
                   std::uint64_t seed, faults::FaultPlan plan);

  NetworkSimulator(const NetworkSimulator&) = delete;
  NetworkSimulator& operator=(const NetworkSimulator&) = delete;

  /// Sets every source's Poisson rate (and, for Fair Share gateways, the
  /// class decomposition). Rates must be finite and >= 0. A connection
  /// currently departed by churn keeps an effective rate of 0 until its
  /// rejoin, whatever is installed here.
  void set_rates(const std::vector<double>& rates);

  /// Advances the simulation by `duration` time units.
  void run_for(double duration);

  /// Discards every statistic gathered so far (warm-up / epoch reset).
  void reset_metrics();

  /// Time-average number of connection i's packets at gateway a (the
  /// simulated Q^a_i). Throws if i does not traverse a.
  double mean_queue(network::GatewayId a, network::ConnectionId i) const;

  /// Every mean_queue at once, into `flat` (resized to E) in the CSR
  /// gateway-major layout: flat[gateway_offset(a) + k] is the k-th
  /// connection of Gamma(a), the input of core::signal_stage_into.
  void mean_queues_into(std::vector<double>& flat) const;

  /// Time-average total occupancy at gateway a.
  double mean_total_queue(network::GatewayId a) const;

  /// Mean one-way path delay of delivered packets of connection i
  /// (latencies + queueing); 0 if nothing was delivered.
  double mean_delay(network::ConnectionId i) const;

  /// Delivered packets of connection i per unit time since the last metric
  /// reset.
  double throughput(network::ConnectionId i) const;

  /// Packets delivered for connection i since the last metric reset.
  std::uint64_t delivered(network::ConnectionId i) const;

  /// Raw one-way delay samples of connection i since the last reset (capped
  /// at kMaxDelaySamples; later deliveries stop being recorded). Empty
  /// unless set_delay_sampling(true): only the distributional tests (KS
  /// against the M/M/1 sojourn law) read them.
  const std::vector<double>& delay_samples(network::ConnectionId i) const;

  static constexpr std::size_t kMaxDelaySamples = 200000;

  /// Enables/disables raw delay-sample retention (mean/summary statistics
  /// are unaffected). Off (the default), delivery is allocation-free. On,
  /// samples accumulate up to kMaxDelaySamples per connection.
  void set_delay_sampling(bool enabled) { delay_sampling_ = enabled; }

  double now() const { return sim_.now(); }
  std::uint64_t events_processed() const { return sim_.events_processed(); }
  const network::Topology& topology() const { return topology_; }

  /// Lifetime packets injected by the Poisson sources.
  std::uint64_t packets_generated() const { return next_packet_id_; }

  /// Lifetime packets absorbed by sinks (sum over connections; unlike
  /// delivered(i) this is NOT cleared by reset_metrics()).
  std::uint64_t packets_delivered_total() const {
    return packets_delivered_total_;
  }

  /// Dumps the DES counters into `registry` under dotted names (schema in
  /// docs/OBSERVABILITY.md): des.events_processed, des.calendar_high_water,
  /// net.packets_generated / _delivered / _served, and per-gateway
  /// net.gateway<a>.{packets_served, mean_queue}. The occupancy gauges are
  /// time averages since the last reset_metrics(); everything else counts
  /// from construction. Runs with a non-empty fault plan additionally emit
  /// the faults.* counter set (docs/FAULTS.md).
  void collect_metrics(obs::MetricRegistry& registry) const;

  /// Per-fault-class counts of the schedule actions applied so far (all
  /// zeros when constructed without a plan).
  const faults::FaultCounters& fault_counters() const {
    return fault_counters_;
  }

  /// True iff a non-empty fault plan is attached.
  bool impaired() const { return impaired_; }

 private:
  friend class WindowNetworkSimulator;

  /// The engine with no fault plan whose servers hand every departure to
  /// `sink` (a WindowNetworkSimulator), which must outlive it.
  NetworkSimulator(network::Topology topology, SimDiscipline discipline,
                   std::uint64_t seed, PacketSink& sink);

  /// The constructors' common body. `sink` receives the servers'
  /// departures.
  void build(std::uint64_t seed, const faults::FaultPlan& plan,
             PacketSink& sink);

  /// PacketSink: a gateway finished serving `packet`; schedule the line
  /// crossing (or final delivery) as a tagged Propagate event.
  void packet_departed(Packet packet) override;
  /// EventHandler: Arrival = a source emits its next packet; Propagate = a
  /// packet lands at its next hop, or is delivered when the hop index has
  /// run off the end of its path.
  void handle_event(SimEvent& event) override;

  /// Moves `packet` from its gateway onto the outgoing line and returns the
  /// line's latency; the hop index now names the next gateway (== path size
  /// marks final delivery).
  double leave_gateway(Packet& packet) const;

  void schedule_next_arrival(network::ConnectionId i, std::uint64_t gen);
  void arrive_at_hop(Packet packet);

  /// Flattens the plan's windows/churn into time-sorted actions and puts
  /// one Fault event per action on the calendar.
  void compile_fault_plan(const faults::FaultPlan& plan);
  void apply_fault_action(std::size_t action_index);
  /// Re-derives the Fair Share class decomposition from the effective
  /// (churn-masked) rates.
  void refresh_fair_share_rates();

  /// One scheduled plan step: set a gateway's service factor, or toggle a
  /// source's presence.
  struct FaultAction {
    enum class Kind : std::uint8_t { GatewayFactor, SourceDown, SourceUp };
    double time = 0.0;
    Kind kind = Kind::GatewayFactor;
    std::size_t target = 0;
    double factor = 1.0;
  };

  network::Topology topology_;
  SimDiscipline discipline_;
  Simulator sim_;

  /// One Poisson source: everything an Arrival event reads, in one cache
  /// line.
  struct alignas(64) Source {
    stats::Xoshiro256 rng;
    /// Bumped on every restart; a pending Arrival of an older generation
    /// is stale.
    std::uint64_t generation = 0;
    double rate = 0.0;  ///< installed by set_rates (churn masks it)
  };

  std::vector<std::unique_ptr<GatewayServer>> servers_;

  std::vector<Source> sources_;
  /// Scratch for one gateway's effective rates in refresh_fair_share_rates.
  std::vector<double> local_rates_;

  std::vector<stats::OnlineStats> delay_stats_;
  std::vector<std::vector<double>> delay_samples_;
  bool delay_sampling_ = false;
  std::vector<std::uint64_t> delivered_;
  std::uint64_t packets_delivered_total_ = 0;
  double metrics_start_ = 0.0;
  std::uint64_t next_packet_id_ = 0;

  bool impaired_ = false;
  faults::FaultCounters fault_counters_;
  std::vector<FaultAction> fault_actions_;
  /// source_active_[i] == 0 while connection i is churned out; its installed
  /// rate is masked to an effective 0 until the rejoin action fires.
  std::vector<char> source_active_;
};

}  // namespace ffc::sim
