// Shared drivers for the single-server DES tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace ffc::testing {

/// Independent Poisson sources feeding one gateway server through tagged
/// Arrival events (index = connection). Source i draws from its own stream,
/// split from `rng` in connection order; its packets arrive at local index
/// i and carry priority class i, which only the priority server reads.
class PoissonSources final : public sim::EventHandler {
 public:
  PoissonSources(sim::Simulator& sim, sim::GatewayServer& server,
                 stats::Xoshiro256& rng, std::vector<double> rates)
      : sim_(sim), server_(server), rates_(std::move(rates)) {
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      streams_.push_back(rng.split());
    }
  }

  /// Schedules the first arrival of every source with a positive rate.
  void start() {
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      if (rates_[i] > 0.0) schedule_next(i);
    }
  }

  void handle_event(sim::SimEvent& event) override {
    const std::size_t i = event.index;
    sim::Packet packet;
    packet.connection = i;
    packet.priority_class = i;
    packet.created = sim_.now();
    server_.arrival(std::move(packet), i);
    schedule_next(i);
  }

 private:
  void schedule_next(std::size_t i) {
    sim::SimEvent event;
    event.kind = sim::EventKind::Arrival;
    event.index = static_cast<std::uint32_t>(i);
    sim_.schedule_event_in(streams_[i].exponential(rates_[i]), *this, event);
  }

  sim::Simulator& sim_;
  sim::GatewayServer& server_;
  std::vector<double> rates_;
  std::vector<stats::Xoshiro256> streams_;
};

}  // namespace ffc::testing
