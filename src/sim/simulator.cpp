#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffc::sim {

void Simulator::key_overflow(std::uint64_t slot) {
  if (slot >= kMaxSlots) {
    throw std::length_error(
        "Simulator: more than 2^24 events pending at once");
  }
  throw std::length_error(
      "Simulator: sequence numbers exhausted (2^40 events scheduled)");
}

void Simulator::schedule_event_at(double t, EventHandler& handler,
                                  const SimEvent& event) {
  if (std::isnan(t) || t < now_) {
    throw std::invalid_argument("Simulator: cannot schedule in the past");
  }
  // The slot this event takes: the free list's head, else a new one. The
  // key is packed (and both limits checked) before anything changes.
  const bool reuse = free_head_ != kNoSlot;
  const std::uint64_t key =
      pack_key(next_seq_, reuse ? free_head_ : slots_.size());
  const std::uint32_t s = slot_of(key);
  if (reuse) {
    free_head_ = slots_[s].next_free;
  } else {
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.handler = &handler;
  slot.event = event;
  ++next_seq_;
  heap_.push_back(HeapEntry{t, key});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  calendar_high_water_ = std::max(calendar_high_water_, heap_.size());
}

void Simulator::schedule_event_in(double dt, EventHandler& handler,
                                  const SimEvent& event) {
  if (std::isnan(dt) || dt < 0.0) {
    throw std::invalid_argument("Simulator: delay must be >= 0");
  }
  schedule_event_at(now_ + dt, handler, event);
}

void Simulator::reserve(std::size_t pending) {
  heap_.reserve(pending);
  slots_.reserve(pending);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  // The front's slot is read after the sift-down; start loading it now so
  // the two cache misses overlap.
  __builtin_prefetch(&slots_[slot_of(heap_.front().key)]);
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapEntry entry = heap_.back();
  heap_.pop_back();

  // Copy the payload out and free the slot BEFORE dispatch, so events
  // scheduled from inside the handler reuse it: the pool never grows past
  // the true concurrency high-water mark.
  const std::uint32_t s = slot_of(entry.key);
  Slot& slot = slots_[s];
  EventHandler* const handler = slot.handler;
  SimEvent event = slot.event;  // trivial byte copy
  slot.next_free = free_head_;
  free_head_ = s;

  now_ = entry.time;
  ++processed_;
  handler->handle_event(event);
  return true;
}

void Simulator::run_until(double t) {
  if (std::isnan(t) || t < now_) {
    throw std::invalid_argument("Simulator: cannot run backwards");
  }
  while (!heap_.empty() && heap_.front().time <= t) {
    step();
  }
  now_ = t;
}

}  // namespace ffc::sim
