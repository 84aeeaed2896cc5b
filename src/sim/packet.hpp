// The unit of traffic in the packet-level simulator.
//
// 32 bytes (docs/PERFORMANCE.md): the ids are 32-bit, so a packet, its
// calendar event (event.hpp, 48 bytes) and a queued server job (40 bytes)
// each fit one cache line. The engine checks at construction that its
// topology's ids fit (check_packet_field_range).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace ffc::sim {

struct Packet {
  std::uint64_t id = 0;          ///< globally unique
  double created = 0.0;          ///< time the source emitted it
  std::uint32_t connection = 0;  ///< global connection id
  std::uint32_t hop = 0;         ///< index into the connection's path
  /// Fair Share class at the current gateway.
  std::uint32_t priority_class = 0;
  /// DECbit-style congestion indication: set by any congested gateway on the
  /// path, returned to the source in the ACK (window simulator only).
  bool congestion_bit = false;
};

static_assert(sizeof(Packet) == 32);

/// Throws std::length_error unless a topology with `connections`
/// connections, paths of at most `longest_path` hops and gateways of at
/// most `widest_fan_in` connections fits Packet's 32-bit fields: connection
/// ids < connections, hop indices <= the path length (equal marks
/// delivery) and priority classes < the fan-in.
inline void check_packet_field_range(std::size_t connections,
                                     std::size_t longest_path,
                                     std::size_t widest_fan_in) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  const auto fail = [](const char* what, std::size_t value) {
    throw std::length_error("Packet: " + std::string(what) + " of " +
                            std::to_string(value) +
                            " does not fit a 32-bit packet field");
  };
  if (connections > kMax + 1) fail("connection count", connections);
  if (longest_path > kMax) fail("path length", longest_path);
  if (widest_fan_in > kMax + 1) fail("fan-in", widest_fan_in);
}

}  // namespace ffc::sim
