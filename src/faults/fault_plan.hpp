// Deterministic fault injection for the DES and the asynchronous dynamics.
//
// The analytic model and the packet simulator both assume a perfect world:
// every congestion signal arrives, on time, exactly once; gateways never
// slow down or die; the connection set is static. Theorem 5 (§3.4) asks
// what the flow control still guarantees when sources misbehave -- this
// layer asks the complementary question, what it guarantees when the
// *network* misbehaves, the failure mode Andrews/Slivkins and the RCP
// stability line of work (PAPERS.md) identify as the real driver of
// oscillation.
//
// A FaultPlan is immutable configuration: feedback-path impairment
// probabilities (signal loss / duplication / staleness) plus an explicit
// timed schedule of gateway impairment windows and source churn events. It
// carries no RNG state -- consumers derive their fault stream from their
// own task seed via fault_seed(), so an impaired sweep stays byte-identical
// at any --jobs value (docs/DETERMINISM.md), and a zero-impairment plan
// makes no draws at all, leaving the unimpaired run bitwise unchanged.
//
// Consumers (see docs/FAULTS.md for the full contract):
//   * sim::NetworkSimulator   -- gateway windows + source churn
//   * sim::ClosedLoopSimulator -- signal loss/delay/duplication per epoch
//   * core::run_async          -- signal loss/delay/duplication per update
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ffc::obs {
class MetricRegistry;
}

namespace ffc::faults {

/// One gateway impairment window: from `start` for `duration`, the gateway
/// serves at `factor` times its nominal rate. factor == 0 is a full outage
/// (service halts; queued and in-flight packets wait for recovery); factors
/// in (0, 1) are degradations. At start + duration the gateway recovers to
/// its nominal rate.
struct GatewayFault {
  std::size_t gateway = 0;
  double start = 0.0;
  double duration = 0.0;
  double factor = 0.0;  ///< effective-rate multiplier in [0, 1]
};

/// One churn event: `connection` stops sending at `leave` and resumes at
/// `rejoin` (infinity = never comes back). While gone, the connection's
/// effective rate is 0 regardless of what set_rates installs.
struct SourceChurn {
  std::size_t connection = 0;
  double leave = 0.0;
  double rejoin = std::numeric_limits<double>::infinity();
};

/// Per-fault-class event counts, dumped into a MetricRegistry under
/// "faults.*" (docs/OBSERVABILITY.md). Consumers each count the classes
/// they implement and leave the rest at zero; registries sum on merge, so
/// collecting from several consumers of one run yields the union.
struct FaultCounters {
  std::uint64_t signals_lost = 0;         ///< feedback dropped, no update
  std::uint64_t signals_delayed = 0;      ///< stale feedback acted on
  std::uint64_t signals_duplicated = 0;   ///< feedback applied twice
  std::uint64_t gateway_degradations = 0; ///< windows entered with 0<factor<1
  std::uint64_t gateway_outages = 0;      ///< windows entered with factor==0
  std::uint64_t gateway_recoveries = 0;   ///< windows that ended in-run
  std::uint64_t source_leaves = 0;        ///< churn departures applied
  std::uint64_t source_joins = 0;         ///< churn rejoins applied

  /// Adds every class (zeros included) to `registry` as faults.<class>
  /// counters, so an impaired run's manifest always carries the full set.
  void collect(obs::MetricRegistry& registry) const;
};

/// The immutable fault configuration threaded through a run.
struct FaultPlan {
  // ---- feedback-path impairments (probabilistic, per signal) --------------
  double signal_loss_prob = 0.0;       ///< P(a congestion signal is lost)
  double signal_duplicate_prob = 0.0;  ///< P(a signal is processed twice)
  /// Staleness of the signal a source acts on, in closed-loop epochs
  /// (ClosedLoopSimulator: act on the measurement from k epochs ago).
  std::size_t signal_delay_epochs = 0;
  /// Staleness in model-time units (run_async: added to the observation lag).
  double signal_delay_time = 0.0;

  // ---- explicit timed schedule --------------------------------------------
  std::vector<GatewayFault> gateway_faults;
  std::vector<SourceChurn> churn;

  /// Mixed into the consumer's task seed by fault_seed(), so the fault
  /// stream is independent of the simulation streams derived from the same
  /// task seed (two plans differing only in salt draw different faults).
  std::uint64_t salt = 0x6661756c74ULL;

  /// True iff the plan impairs nothing: no probabilistic impairment, no
  /// schedule. Consumers treat an empty plan exactly like no plan -- zero
  /// RNG draws, zero metric emissions, bitwise-identical output.
  bool empty() const;

  /// Seed for a consumer's private fault stream, derived from the
  /// consumer's own `task_seed` and this plan's salt (SplitMix64-mixed;
  /// pure function, see docs/DETERMINISM.md).
  std::uint64_t fault_seed(std::uint64_t task_seed) const;

  /// Throws std::invalid_argument if any probability is outside [0, 1],
  /// any time is negative or non-finite (rejoin may be +infinity), any
  /// factor is outside [0, 1], an id exceeds the given topology bounds, or
  /// two windows on the same gateway overlap (overlap has no well-defined
  /// composite factor, so it is rejected rather than guessed at).
  void validate(std::size_t num_gateways, std::size_t num_connections) const;

  /// Validates only the feedback-path fields (consumers with no topology,
  /// i.e. run_async, which ignores the schedule).
  void validate_signal_fields() const;
};

}  // namespace ffc::faults
