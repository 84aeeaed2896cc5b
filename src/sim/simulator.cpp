#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffc::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].next_free;
    slots_[s].next_free = kNoSlot;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t s) {
  Slot& slot = slots_[s];
  slot.handler = nullptr;
  slot.next_free = free_head_;
  free_head_ = s;
}

void Simulator::push_entry(double t, std::uint32_t slot) {
  heap_.push_back(HeapEntry{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  calendar_high_water_ = std::max(calendar_high_water_, heap_.size());
}

void Simulator::schedule_event_at(double t, EventHandler& handler,
                                  const SimEvent& event) {
  if (std::isnan(t) || t < now_) {
    throw std::invalid_argument("Simulator: cannot schedule in the past");
  }
  const std::uint32_t s = acquire_slot();
  Slot& slot = slots_[s];
  slot.handler = &handler;
  slot.event = event;
  push_entry(t, s);
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
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapEntry entry = heap_.back();
  heap_.pop_back();

  // Copy the payload out and free the slot BEFORE dispatch, so events
  // scheduled from inside the handler reuse it: the pool never grows past
  // the true concurrency high-water mark.
  Slot& slot = slots_[entry.slot];
  EventHandler* const handler = slot.handler;
  SimEvent event = slot.event;  // trivial byte copy
  release_slot(entry.slot);

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
