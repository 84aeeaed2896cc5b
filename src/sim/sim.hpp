// Umbrella header for the packet-level simulation library.
//
// There is one packet engine, NetworkSimulator (calendar, servers, RNG
// streams, forwarding, delivery counts), with two source kinds:
//
//   NetworkSimulator        -- open-loop Poisson sources over a topology
//   WindowNetworkSimulator  -- sliding-window ACK-clocked DECbit sources,
//                              a PacketSink + EventHandler over the engine
//
// and a driver on top of it:
//
//   ClosedLoopSimulator     -- epoch-based rate feedback over packets
//
// Gateway disciplines: FIFO, preemptive-priority Fair Share (Table 1
// realized by stream splitting), and packet-by-packet Fair Queueing.
#pragma once

#include "sim/event.hpp"
#include "sim/fair_queueing.hpp"
#include "sim/feedback_sim.hpp"
#include "sim/network_sim.hpp"
#include "sim/packet.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"
#include "sim/window_sim.hpp"
