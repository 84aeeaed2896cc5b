// The feedback flow-control model (§2): queues -> signals -> rate update.
//
// FlowControlModel binds together a topology, a gateway service discipline
// Q(r), a signalling function B, a feedback style (aggregate/individual),
// and one rate-adjustment algorithm per connection (heterogeneity --
// different algorithms on different connections -- is exactly the §3.4
// robustness setting). It evaluates the network observables at a rate vector
// and performs the synchronous update
//
//   r̂_i = max(0, r_i + f_i(r_i, b_i, d_i)),   b_i = max_{a in y(i)} B(C^a_i)
//
// following the paper's modelling approximations: queues equilibrate
// instantly, per-connection flows stay Poisson through the network, and
// feedback is delay-free.
//
// Hot path (docs/PERFORMANCE.md): the workspace overloads of observe/step
// validate the rate vector ONCE at this boundary, then run the unchecked
// discipline/congestion fast paths against reusable buffers, so iterating
// r̂ = F(r) performs zero heap allocations after the first call. The
// allocating overloads remain as validated conveniences and produce
// bitwise-identical results.
#pragma once

#include <memory>
#include <vector>

#include "core/congestion.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "network/topology.hpp"
#include "queueing/discipline.hpp"

namespace ffc::core {

/// The network observation at a rate vector, in the topology's CSR
/// gateway-major layout (docs/SCALING.md). The per-entry vectors hold one
/// value per (gateway, connection) incidence, E in all: gateway a's Gamma(a)
/// slice starts at incidence().gateway_offset(a), and connection i's hops
/// are the entries incidence().slots(i). Connection i's bottlenecks are the
/// hops whose signal equals combined_signals[i] (the argmax set; see
/// is_bottleneck).
struct NetworkState {
  std::vector<double> queues;            ///< Q^a_i per entry (may be +inf)
  std::vector<double> congestion;        ///< C^a or C^a_i per entry
  std::vector<double> signals;           ///< b^a_i = B(C^a_i) per entry
  std::vector<double> combined_signals;  ///< b_i = max_a b^a_i (N)
  std::vector<double> delays;            ///< d_i (N; may be +infinity)
};

/// Whether the hop at incidence `slot` (one of incidence().slots(i)) is a
/// bottleneck of connection i: its signal attains the path maximum b_i
/// exactly. Ties make several hops bottlenecks; every connection has one.
inline bool is_bottleneck(const NetworkState& state, network::ConnectionId i,
                          std::size_t slot) {
  return state.signals[slot] == state.combined_signals[i];
}

/// Reusable scratch for allocation-free model evaluation. All buffers grow
/// to the model's sizes on first use and then stay put; a default-
/// constructed workspace is valid for any model (and may be moved between
/// models -- buffers are resized per call). One workspace serves one thread;
/// sweep tasks each own theirs. The per-entry buffers share the
/// observation's CSR gateway-major layout.
struct ModelWorkspace {
  NetworkState state;               ///< observe() result
  std::vector<double> next;         ///< step() result
  std::vector<double> local_rates;  ///< per-entry rates (E)
  std::vector<double> sojourns;     ///< per-entry sojourns (E)
  queueing::DisciplineWorkspace discipline;
  CongestionWorkspace congestion;
};

/// The model's signal stage on ws.state.queues (per-entry Q^a_i): writes
/// the congestion measures to ws.state.congestion, the signals
/// b^a_i = B(C^a_i) to ws.state.signals and b_i = max_{a in y(i)} b^a_i to
/// ws.state.combined_signals. FlowControlModel::observe runs it on analytic
/// queues, sim::ClosedLoopSimulator on measured ones. Unchecked (queues >= 0,
/// not NaN) and allocation-free once ws is warm.
void signal_stage_into(const network::CsrIncidence& csr, FeedbackStyle style,
                       const SignalFunction& signal, ModelWorkspace& ws);

class FlowControlModel {
 public:
  /// Heterogeneous constructor: `adjusters` has one entry per connection.
  FlowControlModel(
      network::Topology topology,
      std::shared_ptr<const queueing::ServiceDiscipline> discipline,
      std::shared_ptr<const SignalFunction> signal, FeedbackStyle style,
      std::vector<std::shared_ptr<const RateAdjustment>> adjusters);

  /// Homogeneous convenience constructor: every source runs `adjuster`.
  FlowControlModel(
      network::Topology topology,
      std::shared_ptr<const queueing::ServiceDiscipline> discipline,
      std::shared_ptr<const SignalFunction> signal, FeedbackStyle style,
      std::shared_ptr<const RateAdjustment> adjuster);

  /// Evaluates queues, congestion measures, signals, bottleneck signals and
  /// delays at the given rate vector (size must equal num_connections;
  /// entries must be finite and >= 0).
  NetworkState observe(const std::vector<double>& rates) const;

  /// Allocation-free observation: validates once, then fills ws.state
  /// reusing the workspace buffers. Identical results to observe(rates).
  void observe(const std::vector<double>& rates, ModelWorkspace& ws) const;

  /// One synchronous update r̂ = F(r).
  std::vector<double> step(const std::vector<double>& rates) const;

  /// Allocation-free update: observes into the workspace and writes the
  /// next iterate into ws.next (also returned). The reference is valid
  /// until the next workspace call.
  const std::vector<double>& step(const std::vector<double>& rates,
                                  ModelWorkspace& ws) const;

  /// UNCHECKED update for validated iteration loops (dynamics, fixed-point
  /// solvers, Jacobian probes): identical to step(rates, ws) but skips the
  /// boundary validation. The caller must guarantee `rates` has
  /// num_connections() finite, nonnegative entries -- e.g. because it came
  /// out of a previous (validated) step of this model.
  const std::vector<double>& step_unchecked(const std::vector<double>& rates,
                                            ModelWorkspace& ws) const;

  const network::Topology& topology() const { return topology_; }
  const queueing::ServiceDiscipline& discipline() const {
    return *discipline_;
  }
  const SignalFunction& signal() const { return *signal_; }
  FeedbackStyle style() const { return style_; }
  const RateAdjustment& adjuster(network::ConnectionId i) const {
    return *adjusters_.at(i);
  }

  /// True iff every connection's adjuster is TSI with the SAME b_ss.
  bool homogeneous_tsi() const;

  /// Returns a model identical to this one except for the topology, which
  /// must have the same number of connections (used for scaling tests).
  FlowControlModel with_topology(network::Topology topology) const;

 private:
  /// Constructor checks (non-null members, one adjuster per connection);
  /// then caches the path latencies.
  void validate_members();
  /// Boundary validation: counts as THE one validation for this entry point
  /// (see queueing::validation_count), then checks size/finiteness/sign.
  void validate_boundary(const std::vector<double>& rates) const;
  /// Unchecked workspace fast paths behind the validated public overloads.
  void observe_into(const std::vector<double>& rates, ModelWorkspace& ws) const;
  void step_into(const std::vector<double>& rates, ModelWorkspace& ws) const;

  network::Topology topology_;
  std::shared_ptr<const queueing::ServiceDiscipline> discipline_;
  std::shared_ptr<const SignalFunction> signal_;
  FeedbackStyle style_;
  std::vector<std::shared_ptr<const RateAdjustment>> adjusters_;
  /// Precomputed sum of latencies along each connection's path, so the
  /// per-connection delay reduction is one add over the SoA sojourn sums.
  std::vector<double> path_latency_;
};

}  // namespace ffc::core
