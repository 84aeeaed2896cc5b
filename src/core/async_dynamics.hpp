// Asynchronous rate-update dynamics (§2.5 / §5 future work).
//
// The paper's model updates every source simultaneously and flags that
// assumption as its most consequential simplification: "the lack of
// asynchrony in our model certainly affects the stability results, and we
// are currently investigating the extent of this effect." This module
// implements the natural asynchronous refinement so that effect can be
// measured:
//
//   * each source updates on its own clock, by default once per round-trip
//     time (the fastest a real source could react), with multiplicative
//     jitter so updates interleave rather than phase-lock;
//   * the congestion signal a source acts on can be STALE: it is computed
//     from the rate vector that was in force `feedback_delay_factor x d_i`
//     ago (0 = fresh signals, 1 = one-RTT-old signals, matching the ACK
//     path of a real network);
//   * queues still equilibrate instantly (the paper's separation of time
//     scales), so observations come from the same FlowControlModel.
//
// Findings reproduced by E11 (bench/exp_e11_asynchrony.cpp): staggered updates act like a
// Gauss-Seidel sweep and STABILIZE configurations whose synchronous (Jacobi)
// iteration oscillates, while stale feedback re-destabilizes them -- i.e.
// the paper's synchronous instability results are pessimistic about update
// interleaving but optimistic about feedback lag.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "faults/fault_plan.hpp"

namespace ffc::core {

/// Options for the asynchronous run.
struct AsyncOptions {
  double horizon = 3000.0;        ///< total model time simulated
  /// Observation staleness, in units of the observing connection's current
  /// round-trip delay d_i. 0 reads fresh state; 1 models signals carried by
  /// returning ACKs.
  double feedback_delay_factor = 0.0;
  /// If true, source i updates roughly every d_i; otherwise every
  /// `fixed_period`.
  bool rtt_paced = true;
  double fixed_period = 1.0;
  /// Relative jitter on each inter-update gap (uniform in [1-j, 1+j]).
  double jitter = 0.25;
  /// Cadence of trajectory samples in the result (0 = no samples).
  double sample_interval = 10.0;
  std::uint64_t seed = 1;
  /// Fraction of the horizon (from the end) over which settling is judged.
  double settle_window_fraction = 0.2;
  double settle_tolerance = 1e-5;  ///< relative rate movement threshold
  /// Optional feedback-path impairment (docs/FAULTS.md; borrowed, must
  /// outlive the call). Only the signal fields apply here: per update the
  /// acted-on signal may be lost (the source holds its rate), processed
  /// twice, or made `signal_delay_time` staler on top of the delay-factor
  /// lag. The fault stream derives from faults->fault_seed(seed), so it
  /// never perturbs the pacing/jitter stream; null or an empty plan leaves
  /// the run bitwise-identical to the unimpaired one.
  const faults::FaultPlan* faults = nullptr;
};

/// Result of an asynchronous run.
struct AsyncResult {
  std::vector<double> final_rates;
  /// (time, rates) samples every `sample_interval` of model time.
  std::vector<std::pair<double, std::vector<double>>> samples;
  /// True iff no rate moved more than settle_tolerance (relative) during
  /// the settle window.
  bool settled = false;
  /// Largest relative rate movement observed inside the settle window.
  double residual = 0.0;
  std::uint64_t updates_performed = 0;
  /// Signal-path fault counts (all zero when options.faults was null or
  /// empty). updates_performed counts APPLIED updates; a lost signal skips
  /// the update and counts here instead.
  faults::FaultCounters fault_counters;
};

/// Runs the asynchronous dynamics from `initial`.
/// Requires at least one connection; throws std::invalid_argument on bad
/// options.
AsyncResult run_async(const FlowControlModel& model,
                      std::vector<double> initial,
                      const AsyncOptions& options = {});

}  // namespace ffc::core
