// Umbrella header: the full public API of the feedback flow-control library.
//
// Quickstart:
//
//   using namespace ffc;
//   auto topo = network::single_bottleneck(/*n_connections=*/4, /*mu=*/1.0);
//   core::FlowControlModel model(
//       topo, std::make_shared<queueing::FairShare>(),
//       std::make_shared<core::RationalSignal>(),
//       core::FeedbackStyle::Individual,
//       std::make_shared<core::AdditiveTsi>(/*eta=*/0.1, /*beta=*/0.5));
//   auto result = core::solve_fixed_point(model, {0.1, 0.2, 0.3, 0.4});
//   // result.rates is the unique fair steady state (Theorems 3 + Corollary)
#pragma once

#include "core/async_dynamics.hpp"
#include "core/congestion.hpp"
#include "core/design_eval.hpp"
#include "core/dynamics.hpp"
#include "core/fairness.hpp"
#include "core/model.hpp"
#include "core/onedmap.hpp"
#include "core/rate_adjustment.hpp"
#include "core/robustness.hpp"
#include "core/signal.hpp"
#include "core/stability.hpp"
#include "core/steady_state.hpp"
#include "network/builders.hpp"
#include "network/topology.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/feasibility.hpp"
#include "queueing/fifo.hpp"
#include "queueing/processor_sharing.hpp"
