// Closed-loop feedback flow control over the packet simulator.
//
// The analytic model assumes queues equilibrate instantly between rate
// updates. This driver realizes the same synchronous protocol on the
// packet-level simulator: run an epoch of simulated time at fixed rates,
// read every gateway's measured mean queues in one pass, run the model's
// own signal stage on them (core::signal_stage_into, the congestion ->
// signal -> bottleneck code FlowControlModel::observe runs on its analytic
// queues), and apply the rate-adjustment algorithms. Comparing the rate
// trajectory against FlowControlModel iterations tests how much the
// instant-equilibration approximation matters. A warm epoch allocates
// nothing beyond the EpochRecord it returns.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "faults/fault_plan.hpp"
#include "sim/network_sim.hpp"
#include "stats/rng.hpp"

namespace ffc::sim {

/// One epoch's record.
struct EpochRecord {
  std::vector<double> rates;    ///< rates in force during the epoch
  std::vector<double> signals;  ///< measured bottleneck signals b_i
  std::vector<double> delays;   ///< measured mean one-way delays
};

/// Configuration of the closed loop.
struct ClosedLoopOptions {
  double epoch_duration = 500.0;  ///< simulated time per rate update
  double warmup_fraction = 0.3;   ///< head of each epoch excluded from stats
};

class ClosedLoopSimulator {
 public:
  ClosedLoopSimulator(
      network::Topology topology, SimDiscipline discipline,
      std::shared_ptr<const core::SignalFunction> signal,
      core::FeedbackStyle style,
      std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters,
      std::uint64_t seed, ClosedLoopOptions options = {});

  /// Same, with a fault plan (docs/FAULTS.md). The plan's gateway windows
  /// and churn go to the underlying NetworkSimulator; its signal-path
  /// fields impair the feedback loop here: per connection per epoch the
  /// congestion signal may be lost (no rate update), acted on stale
  /// (signal_delay_epochs old), or processed twice. The fault stream is
  /// drawn from fault_seed(seed), independent of the packet-level streams.
  /// An empty plan is bitwise-identical to the plain constructor.
  ClosedLoopSimulator(
      network::Topology topology, SimDiscipline discipline,
      std::shared_ptr<const core::SignalFunction> signal,
      core::FeedbackStyle style,
      std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters,
      std::uint64_t seed, faults::FaultPlan plan,
      ClosedLoopOptions options = {});

  /// Runs `epochs` rate updates starting from `initial_rates`; returns one
  /// record per epoch. Each run() starts a fresh trajectory (the stale-
  /// signal history is cleared; the fault RNG stream continues).
  std::vector<EpochRecord> run(const std::vector<double>& initial_rates,
                               std::size_t epochs);

  /// The rates after the last run() call.
  const std::vector<double>& rates() const { return rates_; }

  NetworkSimulator& network() { return sim_; }

  /// Signal-path fault counts applied so far (the packet-level counts live
  /// in network().fault_counters(); both are all-zero without a plan).
  const faults::FaultCounters& fault_counters() const {
    return fault_counters_;
  }

  /// Forwards to the network simulator's collect_metrics and, when a
  /// non-empty plan is attached, adds this loop's signal-path faults.*
  /// counters on top (registries sum, so the result is the union).
  void collect_metrics(obs::MetricRegistry& registry) const;

 private:
  EpochRecord run_one_epoch();

  NetworkSimulator sim_;
  std::shared_ptr<const core::SignalFunction> signal_;
  core::FeedbackStyle style_;
  std::vector<std::shared_ptr<const core::RateAdjustment>> adjusters_;
  ClosedLoopOptions options_;
  std::vector<double> rates_;
  /// The signal stage's buffers, reused across epochs.
  core::ModelWorkspace stage_;

  faults::FaultPlan plan_;
  bool impaired_ = false;
  stats::Xoshiro256 fault_rng_;
  faults::FaultCounters fault_counters_;
  /// Ring of the last signal_delay_epochs + 1 measured signal vectors
  /// (newest last); the adjusters act on the oldest retained entry.
  std::vector<std::vector<double>> signal_history_;
};

}  // namespace ffc::sim
