// Closed-form matrix-free Jacobian-vector products for the flow-control map.
//
// The finite-difference operator (spectral/operator.hpp) pays 2 full model
// evaluations per application and carries an irreducible ~1e-7 relative
// noise floor from the O(h^2)/roundoff trade-off. This operator computes
// DF(r) x EXACTLY (to roundoff) in ONE fused pass by chain-ruling through
// the model's layers (docs/THEORY.md section 8):
//
//   rates      dx  = gather(x)                    (CSR scatter, per entry)
//   discipline dQ  = DQ(r) dx                     (closed form per gateway)
//   congestion dC  = DC(Q) dQ                     (prefix sums / total)
//   signal     db^a = B'(C) dC                    (at argmax hops only)
//   bottleneck db_i = max over argmax gateways    (one-sided max derivative)
//   delay      dd_i = sum_a (dQ - W dx_i) / r_i   (quotient rule on W = Q/r)
//   adjuster   df_i = f_r dx_i + f_b db_i + f_d dd_i   (precomputed gradient)
//   truncation y_i  = dx_i + df_i, 0, or max(0, .)     (by sign of r + f)
//
// The map has MIN/MAX kinks (rate ties inside Fair Share, queue ties inside
// the individual measure, bottleneck argmax ties, the max(0, .) truncation).
// Each layer's *_jvp resolves exact ties by the order the perturbed point
// r + h x assumes, so a single pass D(x) is the exact ONE-SIDED directional
// derivative. apply() returns the branch average (D(x) - D(-x)) / 2, which
// equals the central-difference limit the FD operator targets; at smooth
// base points (no ties anywhere -- detected once at construction) one pass
// suffices because D is linear there.
//
// Cost per application: one pass touches each CSR entry O(1) times and does
// only the work that depends on the direction; everything the base point
// determines is computed once, at construction (docs/THEORY.md section 8):
//   * each connection's argmax hops and their B'(C), so the signal and
//     bottleneck layers read one product per argmax hop, fused with the
//     delay, adjuster and truncation layers into one per-connection loop;
//   * a tie-sensitive discipline's (rate, index) order, its tie runs and its
//     per-position JVP coefficients (Fair Share's g'(sigma_p) and saturated
//     suffix, exact because sigma_p is a function of the sorted position at
//     a tied base). The +x pass needs each tie run sorted by (dx, index).
//     It first tries the run as the previous +x pass left it (the history
//     buffer plus_order_): an O(k) scan that stops at the first pair out of
//     (dx, index) order. Successive eigensolver directions are close, so
//     that order usually still holds, and a run that passes is kept as it
//     is. A run that fails is copied from the base order and re-sorted:
//     insertion sort below queueing::kTieRunRadixCutoff, an O(k) LSD radix
//     sort of dx's order-preserving bits above it. The -x pass negates the
//     gathered direction in place and mirrors the +x order in O(m)
//     (negation reverses the groups of equal dx).
// The individual congestion measure takes that order as a candidate,
// verified with std::is_sorted under its exact (Q, dq, index) comparator
// and fully sorted only if the check fails. Every comparator is a strict
// total order, so a candidate that passes its check IS the one sorted
// result, and every floating-point operation keeps its operands and their
// order: the result is bitwise that of sorting and re-deriving everything
// per pass, whatever the history held. FIFO / PS keep no order and pay
// none of this.
// Strictly less work than ONE model evaluation, vs the FD operator's two,
// with zero step-size noise.
// The FD operator remains as the independent oracle the property tests pit
// this operator against (tests/test_spectral.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "linalg/sparse_eigen.hpp"
#include "queueing/discipline.hpp"

namespace ffc::spectral {

/// LinearOperator computing y = DF(r) x analytically around a fixed base
/// point. All buffers are preallocated at construction; apply() performs
/// zero heap allocations (pinned in tests/test_alloc.cpp) and never calls
/// the model.
class AnalyticJacobianOperator final : public linalg::LinearOperator {
 public:
  /// Validates `base_rates` once by evaluating F(base) through the model's
  /// checked entry point, then precomputes every layer's local gradient.
  /// Throws std::invalid_argument if supported(model) is false (a layer
  /// without a closed-form derivative, e.g. BinarySignal).
  AnalyticJacobianOperator(const core::FlowControlModel& model,
                           std::vector<double> base_rates);

  std::size_t dim() const override { return base_.size(); }
  void apply(const linalg::Vector& x, linalg::Vector& y) const override;

  /// Number of apply() calls so far (each is 1 or 2 directional passes).
  std::size_t applications() const { return applications_; }

  /// True iff the base point sits on no kink (no rate/queue/bottleneck ties
  /// that the direction could re-order, no truncation boundary), detected at
  /// construction. Smooth points take one directional pass per apply;
  /// non-smooth points take two (the branch average).
  bool smooth() const { return smooth_; }

  /// True iff every layer of `model` exposes a closed-form derivative:
  /// signal().differentiable(), discipline().differentiable(), and every
  /// connection's adjuster().differentiable().
  static bool supported(const core::FlowControlModel& model);

 private:
  enum class Truncation : unsigned char {
    Active,    ///< r + f > 0: the max(0, .) is the identity locally
    Clamped,   ///< r + f < 0: the output is pinned at 0, derivative 0
    Boundary,  ///< r + f == 0: one-sided max(0, dx + df)
  };

  /// Which side of the branch average a directional pass computes. A Minus
  /// pass must directly follow the Plus pass of the same x: it negates that
  /// pass's gathered direction and mirrors its perturbed rate order instead
  /// of gathering and sorting again.
  enum class Side : unsigned char { Plus, Minus };

  /// One-sided directional derivative D(x) (Plus) or D(-x) (Minus), with
  /// ties resolved by that direction.
  void directional(const std::vector<double>& x, Side side,
                   std::vector<double>& out) const;

  const core::FlowControlModel* model_;
  std::vector<double> base_;
  /// Base evaluation: ws_.state (the observation in the CSR layout) and the
  /// per-entry ws_.local_rates / sojourns hold the observables at base_ for
  /// the operator's lifetime; directional passes only consume the
  /// discipline/congestion scratch (sort orders).
  mutable core::ModelWorkspace ws_;
  /// Tie-sensitive disciplines only (empty otherwise): every gateway's base
  /// rate order, (rate, local index), flat in the CSR gateway-major layout,
  /// and its exact-tie runs; gateway a's runs are tie_runs_[run_offset_[a]]
  /// up to tie_runs_[run_offset_[a + 1]]. The discipline's JVP coefficients
  /// per sorted position (jvp_coefficients_into) sit in the same layout;
  /// gateway a's first unsaturated_[a] are valid.
  std::vector<std::uint32_t> rate_order_;
  std::vector<queueing::RateTieRun> tie_runs_;
  std::vector<std::uint32_t> run_offset_;
  std::vector<double> jvp_coef_;
  std::vector<std::uint32_t> unsaturated_;
  /// History (E): the last Plus pass's perturbed order, starting as
  /// rate_order_. A Plus pass keeps each tie run of it that is still
  /// strictly sorted by (dx, index) and re-sorts the others, so it only
  /// saves work: apply()'s result never depends on it.
  mutable std::vector<std::uint32_t> plus_order_;
  mutable std::vector<std::uint32_t> jvp_order_;  ///< Minus pass's order (E)
  mutable std::vector<queueing::DirectionKey> keys_;  ///< 2x longest tie run
  /// Connection i's argmax hops (its bottlenecks at the base point) are
  /// argmax_slot_[argmax_offset_[i]] up to argmax_slot_[argmax_offset_[i +
  /// 1]], CSR slots in path order, each with the signal slope B'(C) there.
  std::vector<std::uint32_t> argmax_offset_;
  std::vector<std::uint32_t> argmax_slot_;
  std::vector<double> argmax_coef_;
  std::vector<double> adj_dr_;     ///< adjuster df/dr per connection
  std::vector<double> adj_db_;     ///< adjuster df/db per connection
  std::vector<double> adj_dd_;     ///< adjuster df/dd per connection
  std::vector<Truncation> status_;
  bool need_delay_ = false;  ///< any adj_dd_ != 0: run the delay layer
  bool smooth_ = false;

  mutable std::vector<double> dx_flat_;   ///< gathered direction (E)
  mutable std::vector<double> dq_flat_;   ///< queue JVP (E)
  mutable std::vector<double> dc_flat_;   ///< congestion JVP (E)
  mutable std::vector<double> d_plus_;
  mutable std::vector<double> d_minus_;
  mutable std::size_t applications_ = 0;
};

}  // namespace ffc::spectral
