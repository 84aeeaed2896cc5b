// Conservative parallel DES: the packet level sharded across cores.
//
// The single-calendar NetworkSimulator is fast per core (24-byte tagged
// events, slot pools, zero allocations warm -- docs/PERFORMANCE.md) but one
// calendar is one core. ParallelNetworkSimulator partitions the gateways of
// a topology into K shards, each a NetworkSimulator that owns a subset of
// the gateways and sources -- with its own binary-heap calendar, slot pool,
// and RNG streams -- and synchronizes them conservatively in time windows:
//
//   lookahead L = min propagation latency over gateways that feed a
//                 cross-shard hop (infinity when shards are closed)
//   repeat: advance every shard to t + L (in parallel, one exec::ThreadPool
//           task per shard); barrier; exchange cross-shard packet handoffs
//           through per-(src,dst) mailboxes; t += L
//
// A packet served at gateway a departing toward a gateway of another shard
// arrives at now + latency(a) >= window_end, so no shard ever receives an
// event in its past -- the classic null-message-free window variant of
// conservative synchronization (lookahead from link delay, as in
// Chandy-Misra; see docs/PARALLEL.md for the full protocol and proofs).
//
// Determinism (docs/DETERMINISM.md): each shard derives its master seed
// from (seed, shard index) via the SplitMix64 salt-mix and owns every
// stream it uses, mailboxes are drained in (destination, source) shard
// order at the barrier, and the calendar's (time, seq) FIFO-tie contract
// holds *within* each shard -- so a run is byte-identical at any worker
// count, impaired or not. With num_shards == 1 the master seed is used
// unchanged and the one shard owns everything, which is exactly what the
// public NetworkSimulator constructors build: a one-shard run reproduces the
// single-calendar simulator bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"
#include "faults/fault_plan.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/network_sim.hpp"

namespace ffc::sim {

/// Gateway -> shard assignment plus the worker-thread knob.
struct ShardPlan {
  /// shard_of_gateway[a] is the shard that owns gateway a. Every value must
  /// be < num_shards and every shard must own at least one gateway.
  std::vector<std::size_t> shard_of_gateway;
  std::size_t num_shards = 1;

  /// Worker threads driving the shards each window: 0 = one per shard,
  /// 1 = run shards inline on the calling thread (no pool). Results are
  /// byte-identical at every value -- this is purely a throughput knob.
  std::size_t jobs = 0;

  /// Contiguous block partition: gateway a goes to shard a * k / num_gw
  /// (blocks differ in size by at most one). The canonical default.
  static ShardPlan contiguous(std::size_t num_gateways, std::size_t k,
                              std::size_t jobs = 0);
};

/// Derives shard `shard`'s master seed from the run seed: the same
/// scatter-then-offset SplitMix64 shape as exec::derive_task_seed, salted
/// so shard streams never alias sweep-task streams built from the same
/// seed. Shard 0 of a one-shard run uses `seed` unchanged (that is what
/// makes shards=1 bitwise-identical to NetworkSimulator).
std::uint64_t derive_shard_seed(std::uint64_t seed, std::size_t shard);

/// K NetworkSimulator shards covering one topology, synchronized by
/// conservative time windows. The public surface mirrors NetworkSimulator;
/// metric queries route to the owning shard.
class ParallelNetworkSimulator {
 public:
  /// Validates the plan against the topology and builds the shard engines.
  /// Throws std::invalid_argument if the partition is malformed, or if any
  /// cross-shard hop departs a zero-latency gateway (lookahead would be 0,
  /// so the partition cannot be synchronized conservatively -- repartition
  /// so zero-latency edges stay inside one shard).
  ParallelNetworkSimulator(network::Topology topology,
                           SimDiscipline discipline, std::uint64_t seed,
                           ShardPlan plan);

  /// Same, with a fault plan (docs/FAULTS.md). The schedule is compiled
  /// per shard: gateway windows go to the owning shard; a churn action is
  /// replicated to every shard whose gateways the connection traverses
  /// (each updates its own Fair Share decomposition), while only the
  /// source-owning shard toggles arrival generation and counts the event.
  ParallelNetworkSimulator(network::Topology topology,
                           SimDiscipline discipline, std::uint64_t seed,
                           ShardPlan plan, faults::FaultPlan faults);

  ParallelNetworkSimulator(const ParallelNetworkSimulator&) = delete;
  ParallelNetworkSimulator& operator=(const ParallelNetworkSimulator&) =
      delete;

  /// Sets every source's Poisson rate (same contract as
  /// NetworkSimulator::set_rates; applied to every shard).
  void set_rates(const std::vector<double>& rates);

  /// Advances all shards by `duration`, window by window.
  void run_for(double duration);

  /// Discards statistics gathered so far on every shard.
  void reset_metrics();

  // ---- metric queries (routed to the owning shard) ------------------------
  double mean_queue(network::GatewayId a, network::ConnectionId i) const;
  double mean_total_queue(network::GatewayId a) const;
  double mean_delay(network::ConnectionId i) const;
  double throughput(network::ConnectionId i) const;
  std::uint64_t delivered(network::ConnectionId i) const;

  /// Raw one-way delay samples of connection i (owned by the sink's shard;
  /// capped at NetworkSimulator::kMaxDelaySamples, like the single-calendar
  /// simulator's).
  const std::vector<double>& delay_samples(network::ConnectionId i) const;

  /// Enables/disables raw delay-sample retention on every shard.
  void set_delay_sampling(bool enabled);

  double now() const { return now_; }
  const network::Topology& topology() const { return topology_; }
  std::size_t num_shards() const { return plan_.num_shards; }

  /// The synchronization lookahead (+infinity when no path crosses shards).
  double lookahead() const { return lookahead_; }

  /// Synchronization windows executed so far.
  std::uint64_t windows() const { return windows_; }

  /// Cross-shard packet handoffs exchanged so far.
  std::uint64_t handoffs() const { return handoffs_; }

  /// Aggregate events executed across all shard calendars.
  std::uint64_t events_processed() const;

  /// Lifetime packets injected / absorbed, summed over shards.
  std::uint64_t packets_generated() const;
  std::uint64_t packets_delivered_total() const;

  /// Merges every shard's counters into `registry` in shard order (the
  /// same des.* / net.* names as NetworkSimulator::collect_metrics, which
  /// sum across shards), then -- only when num_shards > 1 -- adds the
  /// par.{windows,handoffs,shards} counters (docs/OBSERVABILITY.md). A
  /// one-shard dump is byte-identical to the single-calendar simulator's.
  void collect_metrics(obs::MetricRegistry& registry) const;

  /// Schedule actions applied so far, summed over shards (churn counted
  /// once, by the source-owning shard).
  faults::FaultCounters fault_counters() const;

  /// True iff a non-empty fault plan is attached.
  bool impaired() const { return shards_.front()->impaired(); }

 private:
  void exchange_handoffs();
  /// The shard owning connection i's sink (its last gateway).
  const NetworkSimulator& sink_shard(network::ConnectionId i) const;

  network::Topology topology_;
  ShardPlan plan_;
  double lookahead_ = std::numeric_limits<double>::infinity();
  double now_ = 0.0;
  std::uint64_t windows_ = 0;
  std::uint64_t handoffs_ = 0;

  std::vector<std::unique_ptr<NetworkSimulator>> shards_;

  /// Null when the shards run inline (one shard, or ShardPlan::jobs == 1).
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace ffc::sim
