// Discrete-event simulation core.
//
// A minimal calendar: events are popped in time order, FIFO among ties
// (guaranteed by a monotone sequence number -- a pinned contract, see
// tests/test_sim_core.cpp). Servers that need to cancel pending completions
// (preemptive priority) use generation counters on their side rather than a
// cancellation API, keeping the calendar free of bookkeeping.
//
// Layout (docs/PERFORMANCE.md): the binary heap orders 24-byte
// HeapEntry{time, seq, slot} PODs, so sift operations move three words, and
// the event payloads live in a free-listed slot pool beside it. Every event
// is a tagged SimEvent (event.hpp) bound to its EventHandler, copied into a
// slot byte-for-byte -- scheduling and dispatching perform zero heap
// allocation once the heap and pool have grown to the run's concurrency
// high-water mark.
//
// The heap is hand-rolled (std::push_heap/std::pop_heap over a std::vector)
// rather than std::priority_queue, whose storage reserve() could not
// pre-grow.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"

namespace ffc::sim {

/// The event calendar and simulation clock.
class Simulator {
 public:
  /// Current simulation time.
  double now() const { return now_; }

  /// Schedules a tagged event at absolute time `t` (>= now()); `event` is
  /// copied into the calendar, `handler` is borrowed and must outlive the
  /// event. Allocation-free once the calendar has warmed up.
  void schedule_event_at(double t, EventHandler& handler,
                         const SimEvent& event);

  /// Schedules a tagged event `dt` time units from now (dt >= 0).
  void schedule_event_in(double dt, EventHandler& handler,
                         const SimEvent& event);

  /// Pre-grows the calendar and slot pool to hold `pending` simultaneous
  /// events without allocating.
  void reserve(std::size_t pending);

  /// Executes the next event, advancing the clock. Returns false if the
  /// calendar is empty.
  bool step();

  /// Runs events until the clock would pass `t`; the clock is left exactly
  /// at `t` (pending later events remain scheduled).
  void run_until(double t);

  /// True if no events are pending.
  bool empty() const { return heap_.empty(); }

  /// Total number of events executed.
  std::uint64_t events_processed() const { return processed_; }

  /// Events pending right now.
  std::size_t calendar_size() const { return heap_.size(); }

  /// Largest number of simultaneously pending events seen so far -- the
  /// calendar's memory high-water mark.
  std::size_t calendar_high_water() const { return calendar_high_water_; }

  /// Slots ever materialized in the payload pool. Equals the high-water mark
  /// of concurrently pending events; after warm-up it stops growing (the
  /// allocation tests pin this).
  std::size_t slot_pool_size() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// What the heap orders: three words, cheap to sift.
  struct HeapEntry {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    // Max-heap comparator on "fires later", so the heap front is the
    // earliest event (ties broken FIFO by sequence number).
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// Pooled payload: a tagged event bound to its handler.
  struct Slot {
    EventHandler* handler = nullptr;
    SimEvent event{};
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);
  void push_entry(double t, std::uint32_t slot);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t calendar_high_water_ = 0;
  std::vector<HeapEntry> heap_;  ///< binary heap ordered by Later
  std::vector<Slot> slots_;      ///< payload pool; grows, never shrinks
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ffc::sim
