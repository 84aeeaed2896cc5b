// Packet-by-packet Fair Queueing (§4's "realistic version of Fair Share").
//
// The paper models gateways analytically; §4 points at Fair Queueing
// [Dem89] as the implementable discipline built from the same protect-
// sources-from-each-other intuition. We implement the self-clocked variant
// (service tags computed against the finish tag of the packet in service),
// which avoids tracking the bit-by-bit round-robin virtual time exactly and
// is the standard practical approximation:
//
//   on arrival of a packet of connection i with service requirement s:
//     F_i <- max(F_i, V) + s,   tag the packet F_i
//   serve, non-preemptively, the backlogged packet with the smallest tag;
//   V is the tag of the packet in service (0 when idle).
//
// Unlike the preemptive Fair Share construction, FQ is non-preemptive, so a
// small sender can wait for one in-flight large packet -- its queues sit
// slightly above the Fair Share closed form but far below FIFO's when a
// greedy sender misbehaves.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/class_queues.hpp"
#include "sim/server.hpp"

namespace ffc::sim {

class FairQueueingServer final : public GatewayServer {
 public:
  FairQueueingServer(Simulator& sim, double mu, std::size_t num_local,
                     stats::Xoshiro256 rng, PacketSink* sink);

  void arrival(Packet packet, std::size_t local_conn) override;

 protected:
  void on_service_complete(std::uint64_t generation) override;
  void on_service_factor_changed() override;

 private:
  void start_service();

  struct Job {
    Packet packet;
    std::size_t local_conn = 0;
    double service_time = 0.0;  ///< sampled at arrival (the packet's "size")
    double finish_tag = 0.0;
  };

  /// Per-connection FIFO of tagged packets (tags are increasing within a
  /// connection, so only head-of-line packets compete), one list per local
  /// connection over one node pool.
  ClassQueues<Job> backlog_;
  std::optional<Job> in_service_;
  double virtual_time_ = 0.0;  ///< finish tag of the packet in service
  std::vector<double> last_finish_;  ///< F_i per connection
  std::uint64_t generation_ = 0;
};

}  // namespace ffc::sim
