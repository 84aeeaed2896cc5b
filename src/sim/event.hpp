// Tagged events: the fixed-size calendar payload of the DES core.
//
// A SimEvent is a 48-byte POD union-of-meanings: one kind tag plus the
// handler-defined fields (index / generation / packet). Scheduling one
// copies bytes into a pooled one-cache-line slot and never touches the
// allocator, where a std::function per event would heap-allocate any
// capture past its small-buffer limit (docs/PERFORMANCE.md).
//
// Dispatch is double: the Simulator routes the event to its EventHandler
// (a gateway server, a network simulator, ...) which switches on `kind`.
#pragma once

#include <cstdint>

#include "sim/packet.hpp"

namespace ffc::sim {

/// What a tagged calendar event means to its handler.
enum class EventKind : std::uint8_t {
  Arrival,          ///< a source emits its next packet (index = connection)
  ServiceComplete,  ///< a server finishes the job in service
  Propagate,        ///< a packet crosses a line; delivery/ACK when the hop
                    ///< index has run off the end of the path
  Fault,            ///< fault-plan action fires (index = compiled action id)
};

/// Fixed-size event payload. Which fields are meaningful is a contract
/// between the scheduler of the event and its handler:
///   Arrival          index (connection id) + generation (source restart)
///   ServiceComplete  generation (stale-completion invalidation)
///   Propagate        packet (connection, hop, created, congestion_bit)
///   Fault            index (fault-action id in the handler's compiled plan)
struct SimEvent {
  EventKind kind = EventKind::Arrival;
  std::uint32_t index = 0;
  std::uint64_t generation = 0;
  Packet packet{};
};

static_assert(sizeof(SimEvent) == 48);

/// Receiver of tagged events. Handlers are borrowed, never owned: whoever
/// schedules an event must keep its handler alive until the event fires
/// (in this codebase handlers own the Simulator or live beside it, so
/// lifetimes are structural).
class EventHandler {
 public:
  virtual void handle_event(SimEvent& event) = 0;

 protected:
  ~EventHandler() = default;  // interface only; never deleted through this
};

}  // namespace ffc::sim
