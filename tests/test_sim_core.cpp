// Tests for the discrete-event core: the calendar, and the FIFO /
// preemptive-priority / Fair Share servers against their closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracles/priority.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/feasibility.hpp"
#include "sim/packet.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim_helpers.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::queueing::g;
using ffc::sim::EventHandler;
using ffc::sim::FairShareServer;
using ffc::sim::FifoServer;
using ffc::sim::FunctionSink;
using ffc::sim::Packet;
using ffc::sim::PriorityServer;
using ffc::sim::SimEvent;
using ffc::sim::Simulator;
using ffc::stats::Xoshiro256;
using ffc::testing::PoissonSources;

// Records the `index` tag of every event it receives into a log (which
// several recorders may share) and runs an optional reaction, so a test can
// schedule from inside a handler.
class Recorder final : public EventHandler {
 public:
  Recorder(Simulator& sim, std::vector<int>& log) : sim_(sim), log_(log) {}

  void at(double t, int tag) { sim_.schedule_event_at(t, *this, event(tag)); }
  void in(double dt, int tag) {
    sim_.schedule_event_in(dt, *this, event(tag));
  }

  void handle_event(SimEvent& e) override {
    log_.push_back(static_cast<int>(e.index));
    if (on_fire) on_fire(static_cast<int>(e.index));
  }

  std::function<void(int)> on_fire;

 private:
  static SimEvent event(int tag) {
    SimEvent e;
    e.index = static_cast<std::uint32_t>(tag);
    return e;
  }

  Simulator& sim_;
  std::vector<int>& log_;
};

TEST(SimulatorCore, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  rec.at(2.0, 2);
  rec.at(1.0, 1);
  rec.at(3.0, 3);
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorCore, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  rec.at(1.0, 1);
  rec.at(1.0, 2);
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Pins the (time, sequence) FIFO contract hard: many simultaneous events,
// interleaved with events at other times, must fire in exact schedule
// order. A plain binary heap is NOT stable, so this only passes because the
// calendar breaks time ties on the global schedule sequence number.
TEST(SimulatorCore, ManyTiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  // Schedule 20 events at t=5 (tags 0..19) interleaved with events at t=2
  // (tag 100) and t=8 (tag 200); the t=5 block must come out 0..19
  // regardless of heap layout.
  for (int k = 0; k < 20; ++k) {
    rec.at(5.0, k);
    rec.at(2.0, 100);
    rec.at(8.0, 200);
  }
  while (sim.step()) {
  }
  std::vector<int> expected(20, 100);
  for (int k = 0; k < 20; ++k) expected.push_back(k);
  expected.resize(60, 200);
  EXPECT_EQ(order, expected);
}

TEST(SimulatorCore, TiesScheduledFromCallbacksFireAfterEarlierTies) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  rec.on_fire = [&](int tag) {
    // Scheduled at the current time from within a handler: runs after
    // every event already queued at t=1, because its sequence is larger.
    if (tag == 0) rec.at(1.0, 3);
  };
  rec.at(1.0, 0);
  rec.at(1.0, 1);
  rec.at(1.0, 2);
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Tagged events bound to different handlers share one calendar and one
// (time, seq) FIFO contract: interleaving them at a tied timestamp must
// still fire in exact schedule order.
TEST(SimulatorCore, TaggedEventsInterleaveWithCallbacksInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  Recorder first(sim, order);
  Recorder second(sim, order);
  first.at(1.0, 0);
  second.at(1.0, 1);
  first.at(1.0, 2);
  second.at(1.0, 3);
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Re-schedules itself until `limit` firings, advancing the event's
// generation each hop so the payload round-trips through the slot pool.
class ChainHandler final : public EventHandler {
 public:
  ChainHandler(Simulator& sim, int limit) : sim_(sim), limit_(limit) {}
  void handle_event(SimEvent& event) override {
    EXPECT_EQ(event.generation, static_cast<std::uint64_t>(fired));
    if (++fired < limit_) {
      event.generation += 1;
      sim_.schedule_event_in(1.0, *this, event);
    }
  }
  int fired = 0;

 private:
  Simulator& sim_;
  int limit_;
};

// A slot is released before its event is dispatched, so a self-rescheduling
// chain of any length keeps reusing one slot: the pool's size equals the
// concurrency high-water mark, not the event count.
TEST(SimulatorCore, SlotPoolSizeMatchesConcurrencyHighWater) {
  Simulator sim;
  ChainHandler chain(sim, 1000);
  sim.schedule_event_in(1.0, chain, SimEvent{});
  sim.run_until(5000.0);
  EXPECT_EQ(chain.fired, 1000);
  EXPECT_EQ(sim.slot_pool_size(), 1u);
  EXPECT_EQ(sim.events_processed(), 1000u);
}

// The heap key packs seq << 24 | slot. The limits are tested on the packing
// helper itself: reaching them by scheduling would take 2^24 pending events
// or 2^40 scheduled ones.
TEST(SimulatorCore, KeyPackingHoldsBothFieldsAtTheirLimits) {
  constexpr std::uint64_t kTopSlot = Simulator::kMaxSlots - 1;
  EXPECT_EQ(Simulator::kMaxSlots, std::uint64_t{1} << 24);
  EXPECT_EQ(Simulator::kMaxSeq, (std::uint64_t{1} << 40) - 1);
  const std::uint64_t top = Simulator::pack_key(Simulator::kMaxSeq, kTopSlot);
  EXPECT_EQ(top, ~std::uint64_t{0});
  EXPECT_EQ(Simulator::slot_of(top), kTopSlot);
  EXPECT_EQ(top >> Simulator::kSlotBits, Simulator::kMaxSeq);
  const std::uint64_t low = Simulator::pack_key(0, kTopSlot);
  EXPECT_EQ(Simulator::slot_of(low), kTopSlot);
  EXPECT_EQ(low >> Simulator::kSlotBits, 0u);
  EXPECT_EQ(Simulator::slot_of(Simulator::pack_key(Simulator::kMaxSeq, 0)),
            0u);
  // Keys order as their sequence numbers do, whatever the slots.
  EXPECT_LT(Simulator::pack_key(41, kTopSlot), Simulator::pack_key(42, 0));
  EXPECT_LT(Simulator::pack_key(Simulator::kMaxSeq - 1, kTopSlot),
            Simulator::pack_key(Simulator::kMaxSeq, 0));
}

TEST(SimulatorCore, KeyPackingPastEitherLimitThrows) {
  const auto message = [](std::uint64_t seq, std::uint64_t slot) {
    try {
      Simulator::pack_key(seq, slot);
    } catch (const std::length_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message(0, Simulator::kMaxSlots).find("2^24 events pending"),
            std::string::npos);
  EXPECT_NE(message(Simulator::kMaxSeq + 1, 0).find("2^40 events"),
            std::string::npos);
  EXPECT_NE(message(~std::uint64_t{0}, ~std::uint64_t{0}).find("2^24"),
            std::string::npos);
  EXPECT_NO_THROW(
      Simulator::pack_key(Simulator::kMaxSeq, Simulator::kMaxSlots - 1));
}

TEST(PacketFields, RangeCheckAcceptsExactlyWhatFits32Bits) {
  // Ids up to 2^32 - 1 fit: 2^32 connections, paths of 2^32 - 1 hops (the
  // delivery hop index equals the length) and fan-ins of 2^32 classes. A
  // topology this large cannot be built in a test, so the engine's check is
  // exercised on the extents alone.
  constexpr std::size_t kMax = 0xffffffffu;
  using ffc::sim::check_packet_field_range;
  EXPECT_NO_THROW(check_packet_field_range(kMax + 1, kMax, kMax + 1));
  EXPECT_THROW(check_packet_field_range(kMax + 2, 1, 1), std::length_error);
  EXPECT_THROW(check_packet_field_range(1, kMax + 1, 1), std::length_error);
  EXPECT_THROW(check_packet_field_range(1, 1, kMax + 2), std::length_error);
}

TEST(SimulatorCore, CalendarSizeAndHighWaterTrackThePendingSet) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  EXPECT_EQ(sim.calendar_size(), 0u);
  EXPECT_EQ(sim.calendar_high_water(), 0u);
  rec.at(1.0, 1);
  rec.at(2.0, 2);
  rec.at(3.0, 3);
  EXPECT_EQ(sim.calendar_size(), 3u);
  EXPECT_EQ(sim.calendar_high_water(), 3u);
  sim.step();
  EXPECT_EQ(sim.calendar_size(), 2u);
  // High water is a lifetime maximum; draining does not lower it.
  EXPECT_EQ(sim.calendar_high_water(), 3u);
  sim.run_until(10.0);
  EXPECT_EQ(sim.calendar_size(), 0u);
  EXPECT_EQ(sim.calendar_high_water(), 3u);
}

TEST(SimulatorCore, RunUntilLeavesClockAtTarget) {
  Simulator sim;
  std::vector<int> fired;
  Recorder rec(sim, fired);
  rec.at(5.0, 0);
  sim.run_until(3.0);
  EXPECT_EQ(fired.size(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(SimulatorCore, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  int count = 0;
  rec.on_fire = [&](int) {
    if (++count < 5) rec.in(1.0, count);
  };
  rec.in(1.0, 0);
  sim.run_until(100.0);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorCore, TaggedEventValidation) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  rec.at(5.0, 0);
  sim.run_until(5.0);
  EXPECT_THROW(rec.at(1.0, 1), std::invalid_argument);
  EXPECT_THROW(rec.in(-1.0, 1), std::invalid_argument);
  EXPECT_THROW(rec.at(std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(rec.in(std::nan(""), 1), std::invalid_argument);
  EXPECT_EQ(sim.calendar_size(), 0u);
}

TEST(SimulatorCore, Validation) {
  Simulator sim;
  std::vector<int> order;
  Recorder rec(sim, order);
  rec.at(5.0, 0);
  sim.run_until(5.0);
  EXPECT_THROW(sim.run_until(1.0), std::invalid_argument);
  EXPECT_THROW(sim.run_until(std::nan("")), std::invalid_argument);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// Drives `server` with independent Poisson arrivals (connection i sends
// packets of priority class i, which only the priority server looks at) and
// returns per-connection mean occupancy after a warm-up.
std::vector<double> drive_server(Simulator& sim, Xoshiro256& rng,
                                 ffc::sim::GatewayServer& server,
                                 const std::vector<double>& rates,
                                 double horizon) {
  PoissonSources sources(sim, server, rng, rates);
  sources.start();
  sim.run_until(sim.now() + horizon * 0.2);
  server.reset_metrics();
  sim.run_until(sim.now() + horizon * 0.8);
  server.flush_metrics();
  std::vector<double> occ(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    occ[i] = server.mean_occupancy(i);
  }
  return occ;
}

template <typename Server>
std::vector<double> measure_occupancy(const std::vector<double>& rates,
                                      double mu, double horizon,
                                      std::uint64_t seed) {
  Simulator sim;
  Xoshiro256 rng(seed);
  std::uint64_t delivered = 0;
  FunctionSink sink([&](Packet) { ++delivered; });
  Server server(sim, mu, rates.size(), rng.split(), &sink);
  if constexpr (std::is_same_v<Server, FairShareServer>) {
    server.set_rates(rates);
  }
  const auto occ = drive_server(sim, rng, server, rates, horizon);
  EXPECT_GT(delivered, 0u);
  return occ;
}

std::vector<double> measure_priority_occupancy(
    const std::vector<double>& rates, double mu, double horizon,
    std::uint64_t seed) {
  Simulator sim;
  Xoshiro256 rng(seed);
  FunctionSink sink([](Packet) {});
  PriorityServer server(sim, mu, rates.size(), rates.size(), rng.split(),
                        &sink);
  return drive_server(sim, rng, server, rates, horizon);
}

TEST(FifoServerSim, MatchesMm1Occupancy) {
  // Single connection at rho = 0.5: L = 1.
  const auto occ =
      measure_occupancy<FifoServer>({0.5}, 1.0, 60000.0, 12345);
  EXPECT_NEAR(occ[0], 1.0, 0.08);
}

TEST(FifoServerSim, SharesOccupancyProportionally) {
  const std::vector<double> rates{0.2, 0.4};
  const auto occ =
      measure_occupancy<FifoServer>(rates, 1.0, 60000.0, 777);
  EXPECT_NEAR(occ[0], 0.2 / 0.4, 0.08);
  EXPECT_NEAR(occ[1], 0.4 / 0.4, 0.12);
}

TEST(PriorityServerSim, MatchesPreemptiveAnalytics) {
  const std::vector<double> rates{0.3, 0.45};
  const auto occ = measure_priority_occupancy(rates, 1.0, 60000.0, 999);
  const auto expected =
      ffc::oracles::preemptive_priority_occupancy(rates, 1.0);
  EXPECT_NEAR(occ[0], expected[0], 0.05);
  EXPECT_NEAR(occ[1], expected[1], 0.25);
}

TEST(PriorityServerSim, HighPriorityUnaffectedByLowLoad) {
  // Class 0 alone vs class 0 + heavy class 1: occupancy of class 0 must not
  // change (preemption shields it completely).
  const auto alone = measure_priority_occupancy({0.4, 0.0}, 1.0, 60000.0, 31);
  const auto shared =
      measure_priority_occupancy({0.4, 0.55}, 1.0, 60000.0, 31);
  EXPECT_NEAR(alone[0], shared[0], 0.1);
  EXPECT_NEAR(alone[0], g(0.4), 0.08);
}

TEST(FairShareServerSim, MatchesFairShareClosedForm) {
  const std::vector<double> rates{0.1, 0.25, 0.4};
  const auto occ =
      measure_occupancy<FairShareServer>(rates, 1.0, 80000.0, 4242);
  ffc::queueing::FairShare fs;
  const auto expected = fs.queue_lengths(rates, 1.0);
  EXPECT_NEAR(occ[0], expected[0], 0.05);
  EXPECT_NEAR(occ[1], expected[1], 0.10);
  EXPECT_NEAR(occ[2], expected[2], 0.5);
}

TEST(FairShareServerSim, ProtectsSmallSenderUnderOverload) {
  // Total load 1.2 > 1; the small sender's analytic queue is finite and the
  // simulated occupancy must stay near it rather than blowing up.
  const std::vector<double> rates{0.1, 0.55, 0.55};
  const auto occ =
      measure_occupancy<FairShareServer>(rates, 1.0, 40000.0, 5150);
  ffc::queueing::FairShare fs;
  const auto expected = fs.queue_lengths(rates, 1.0);
  ASSERT_TRUE(std::isfinite(expected[0]));
  EXPECT_NEAR(occ[0], expected[0], 0.06);
  // The greedy senders' queues grow with time (no finite mean).
  EXPECT_GT(occ[1] + occ[2], 50.0);
}

TEST(FairShareServerSim, RequiresRatesBeforeArrivals) {
  Simulator sim;
  Xoshiro256 rng(1);
  FunctionSink sink([](Packet) {});
  FairShareServer server(sim, 1.0, 2, rng, &sink);
  Packet p;
  EXPECT_THROW(server.arrival(std::move(p), 0), std::logic_error);
}

TEST(ServerValidation, BadConstruction) {
  Simulator sim;
  Xoshiro256 rng(1);
  FunctionSink sink([](Packet) {});
  EXPECT_THROW(FifoServer(sim, 0.0, 1, rng, &sink), std::invalid_argument);
  EXPECT_THROW(FifoServer(sim, 1.0, 1, rng, nullptr),
               std::invalid_argument);
  EXPECT_THROW(PriorityServer(sim, 1.0, 1, 0, rng, &sink),
               std::invalid_argument);
  EXPECT_THROW(FunctionSink(nullptr), std::invalid_argument);
}

}  // namespace
