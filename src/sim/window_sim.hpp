// Window-based (ACK-clocked) flow control over the packet simulator --
// the mechanism the real algorithms of §4 actually use.
//
// The analytic model treats sources as rate-controlled; DECbit and
// Jacobson's TCP are WINDOW-controlled: a source keeps at most W packets in
// flight, sending a new one whenever an acknowledgement returns. Congestion
// feedback is the DECbit rule: a gateway whose instantaneous queue is at or
// above `bit_threshold` sets the congestion bit in passing packets; the bit
// rides back in the ACK. Once per window's worth of ACKs the source adjusts:
//
//   W <- W * decrease   if >= half the window's ACKs carried the bit,
//   W <- W + increase   otherwise                     (linear-increase,
//                                                      multiplicative-
//                                                      decrease [Jai88])
//
// This simulator exists to test the paper's §4 reading of those designs on
// the real mechanism: window control is latency-biased under FIFO (short-RTT
// connections grab the bottleneck), and fair-queueing-style gateways repair
// much of that bias [Dem89] -- see E14 (bench/exp_e14_windowed_decbit.cpp).
//
// The packet engine is NetworkSimulator's: its calendar, servers, RNG
// streams, forwarding and delivery counts. This class is only the
// ACK-clocked source kind on top of it -- the servers' PacketSink and the
// EventHandler of its own hop and ACK events.
#pragma once

#include <cstdint>
#include <vector>

#include "network/topology.hpp"
#include "sim/network_sim.hpp"
#include "sim/server.hpp"
#include "stats/summary.hpp"

namespace ffc::sim {

/// Which queue the DECbit rule inspects -- the §2.3.1 aggregate/individual
/// distinction, realized at the bit level:
///   AggregateQueue: original DECbit [Jai88] -- mark every passing packet
///                   when the gateway's TOTAL queue >= threshold.
///   OwnQueue:       selective DECbit [Ram87] -- mark a packet only when
///                   ITS OWN connection's queue >= threshold.
enum class BitRule { AggregateQueue, OwnQueue };

/// Configuration of the windowed simulation.
struct WindowOptions {
  BitRule bit_rule = BitRule::AggregateQueue;
  double bit_threshold = 2.0;   ///< DECbit: set bit when queue >= threshold
  double initial_window = 2.0;
  double increase = 1.0;        ///< additive window increase
  double decrease = 0.875;      ///< multiplicative window decrease
  double min_window = 1.0;
  double max_window = 256.0;    ///< must be finite
  bool adapt = true;            ///< false = fixed sliding windows
};

/// Packet-level simulation of sliding-window sources with DECbit feedback.
/// It implements PacketSink + EventHandler over a NetworkSimulator engine:
/// gateway departures come back here, and hop propagation and ACK returns
/// are tagged events, so the warmed-up simulation runs without heap
/// allocation.
class WindowNetworkSimulator : private PacketSink, private EventHandler {
 public:
  WindowNetworkSimulator(network::Topology topology,
                         SimDiscipline discipline, WindowOptions options,
                         std::uint64_t seed);

  /// Advances the simulation (sources start sending at construction).
  void run_for(double duration) { engine_.run_for(duration); }

  /// Discards throughput / queue statistics gathered so far.
  void reset_metrics();

  /// Current congestion window of connection i.
  double window(network::ConnectionId i) const;

  /// Fixes connection i's window at `w` and stops adapting it -- a source
  /// that ignores congestion bits (the §3.4 heterogeneity/robustness
  /// scenario at the window level). Call before or during the run.
  /// Requires 1 <= w <= max_window.
  void pin_window(network::ConnectionId i, double w);

  /// Delivered packets of i per unit time since the last metric reset.
  double throughput(network::ConnectionId i) const {
    return engine_.throughput(i);
  }

  /// Mean round-trip time (data path + ACK return) of connection i's
  /// acknowledged packets; 0 if none.
  double mean_rtt(network::ConnectionId i) const;

  /// Fraction of i's ACKs carrying the congestion bit since the reset.
  double bit_fraction(network::ConnectionId i) const;

  /// Time-average number of i's packets at gateway a. Throws if i does not
  /// traverse a.
  double mean_queue(network::GatewayId a, network::ConnectionId i) const {
    return engine_.mean_queue(a, i);
  }

  /// Packets of i delivered (at their last-hop departure) since the reset.
  std::uint64_t delivered(network::ConnectionId i) const {
    return engine_.delivered(i);
  }
  double now() const { return engine_.now(); }
  const network::Topology& topology() const { return engine_.topology(); }

 private:
  struct SourceState {
    double window = 2.0;
    bool adaptive = true;
    std::size_t in_flight = 0;
    std::uint64_t acks_in_cycle = 0;
    std::uint64_t bits_in_cycle = 0;
    std::uint64_t cycle_length = 2;  ///< ACKs per adjustment (~the window)
  };

  /// Throws unless `options` and `discipline` are valid; returns `options`.
  static WindowOptions checked(const WindowOptions& options,
                               SimDiscipline discipline);

  /// PacketSink: a gateway finished serving `packet`; schedule the hop
  /// crossing (forward) or the ACK return (last hop) as a Propagate event.
  void packet_departed(Packet packet) override;
  /// EventHandler: Propagate with hop < path length lands the packet at its
  /// next gateway; hop == path length is the ACK arriving back at the
  /// source (created + congestion_bit ride inside the packet).
  void handle_event(SimEvent& event) override;

  void try_send(network::ConnectionId i);
  /// Sets the packet's congestion bit if the gateway at its hop is
  /// congested right now (the packet has not yet joined the queue).
  void maybe_mark(Packet& packet) const;
  void ack_arrived(network::ConnectionId i, double created, bool bit);
  void adjust_window(network::ConnectionId i);

  WindowOptions options_;
  NetworkSimulator engine_;
  std::vector<SourceState> sources_;

  std::vector<stats::OnlineStats> rtt_stats_;
  std::vector<std::uint64_t> acks_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace ffc::sim
