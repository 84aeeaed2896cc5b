// Discrete-event simulation core.
//
// A minimal calendar: events are popped in time order, FIFO among ties
// (guaranteed by a monotone sequence number -- a pinned contract, see
// tests/test_sim_core.cpp). Servers that need to cancel pending completions
// (preemptive priority) use generation counters on their side rather than a
// cancellation API, keeping the calendar free of bookkeeping.
//
// Layout (docs/PERFORMANCE.md): the binary heap orders 16-byte
// HeapEntry{time, key} PODs, key = seq << 24 | slot, so sift operations move
// two words and compare the packed key where they would compare seq alone:
// the pop order is exactly (time, seq). The event payloads live in a
// free-listed pool of one-cache-line slots beside it. The packing limits
// the pool to 2^24 slots and a run to 2^40 scheduled events; past either,
// scheduling throws std::length_error. step() prefetches the front's slot
// before the sift-down, so the two cache misses overlap. Every event is a
// tagged SimEvent (event.hpp) bound to its EventHandler, copied into a slot
// byte-for-byte -- scheduling and dispatching perform zero heap allocation
// once the heap and pool have grown to the run's concurrency high-water
// mark.
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

  /// Bits of the heap key that hold the slot index: the pool holds at most
  /// kMaxSlots slots.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  /// The largest sequence number the key's upper 40 bits hold.
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// The heap key of the event with sequence number `seq` in slot `slot`:
  /// seq << kSlotBits | slot, which orders as seq does. Throws
  /// std::length_error if seq > kMaxSeq or slot >= kMaxSlots.
  static std::uint64_t pack_key(std::uint64_t seq, std::uint64_t slot) {
    if (slot >= kMaxSlots || seq > kMaxSeq) key_overflow(slot);
    return seq << kSlotBits | slot;
  }
  /// The slot index a key holds.
  static std::uint32_t slot_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & (kMaxSlots - 1));
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Throws pack_key's diagnostic: the slot limit if `slot` is past it,
  /// else the sequence limit.
  [[noreturn]] static void key_overflow(std::uint64_t slot);

  /// What the heap orders: two words, cheap to sift.
  struct HeapEntry {
    double time;
    std::uint64_t key;  ///< pack_key(seq, slot)
  };
  struct Later {
    // Max-heap comparator on "fires later", so the heap front is the
    // earliest event (ties broken FIFO by sequence number, the key's
    // upper bits).
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };
  /// Pooled payload: a tagged event bound to its handler, one cache line.
  struct alignas(64) Slot {
    EventHandler* handler = nullptr;
    SimEvent event{};
    std::uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(HeapEntry) == 16);
  static_assert(sizeof(Slot) == 64);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t calendar_high_water_ = 0;
  std::vector<HeapEntry> heap_;  ///< binary heap ordered by Later
  std::vector<Slot> slots_;      ///< payload pool; grows, never shrinks
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ffc::sim
