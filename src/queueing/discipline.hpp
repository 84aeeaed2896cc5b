// Gateway service disciplines as analytic queue-length functions (§2.2).
//
// A service discipline is represented by the function Q(r): given the vector
// of Poisson sending rates of the connections sharing a gateway of service
// rate mu, it returns each connection's steady-state mean number of packets
// in the system. The paper requires Q to be
//   * symmetric in r (gateways cannot distinguish connections a priori),
//   * time-scale invariant: Q(c*mu, c*r) == Q(mu, r),
//   * monotone: dQ_i/dr_i >= 0 and Q_i > Q_j <=> r_i > r_j,
// and feasible for a nonstalling server (tests/oracles/feasibility.hpp).
// All of these are property-tested in tests/test_queueing_disciplines.cpp.
//
// Two call paths (docs/PERFORMANCE.md):
//   * the validated wrappers (queue_lengths / sojourn_times) allocate their
//     result and validate the inputs -- one validation per call, counted by
//     the validation_count() test hook;
//   * the *_into primitives are the unchecked, allocation-free fast path:
//     the caller owns validation (FlowControlModel validates once at its
//     boundary) and passes a DisciplineWorkspace whose buffers are reused
//     across calls, so a steady-state iterate performs no heap allocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace ffc::queueing {

/// A run of exact rate ties in a rate order: positions [begin, end), with
/// end - begin > 1. Positions and local indices are 32-bit, so a gateway
/// carries fewer than 2^32 connections.
struct RateTieRun {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// One entry of a tie run being re-sorted by direction: the order-preserving
/// bits of its dx (direction_key) and the local index it belongs to,
/// contiguous so the sort stays in cache.
struct DirectionKey {
  std::uint64_t key = 0;
  std::uint32_t index = 0;
};

/// Tie runs of at least this many entries are ordered by an LSD radix sort
/// over their direction keys; shorter ones by insertion sort.
inline constexpr std::size_t kTieRunRadixCutoff = 64;

/// Reusable scratch buffers for the allocation-free discipline fast path.
/// Buffers grow to the largest gateway seen and then stay put; a default-
/// constructed workspace is valid for any call.
struct DisciplineWorkspace {
  std::vector<double> probed;        ///< sojourn probe rates
  std::vector<double> probe_queues;  ///< queues at the probed rates
  std::vector<std::size_t> order;    ///< sort permutation
  std::vector<std::uint32_t> jvp_order;  ///< perturbed order of a JVP
  std::vector<RateTieRun> tie_runs;      ///< rate tie runs of jvp_order
  std::vector<DirectionKey> keys;        ///< tie-run sort scratch
  std::vector<double> jvp_coefficients;  ///< per-position JVP coefficients
};

// The perturbed rate order of a tie-sensitive JVP (docs/THEORY.md section
// 8). A sorted discipline's one-sided derivative along dx is its recursion
// in the order (rate, dx, index): ascending rates, exact rate ties broken
// the way r + h dx breaks them for every small h > 0, then by index. The
// comparator is a strict total order, so the permutation is unique and any
// algorithm that produces it yields the same bits. At a fixed base point
// only the tie runs depend on dx, so the order is built once per base
// (rate_order_into) and then only the runs are re-sorted per direction
// (order_tie_runs_by_direction) or mirrored for -dx (mirror_tie_runs).

/// Writes the local indices of `rates` sorted by (rate, index) into `order`
/// (rates.size() entries) and APPENDS its exact-tie runs, in position
/// order, to `runs`. Each run comes out in ascending local index, the
/// precondition of order_tie_runs_by_direction. O(m log m). Throws
/// std::length_error if the gateway has 2^32 or more connections.
void rate_order_into(std::span<const double> rates,
                     std::span<std::uint32_t> order,
                     std::vector<RateTieRun>& runs);

/// The order-preserving bits of a non-NaN dx: a < b as doubles iff
/// direction_key(a) < direction_key(b) as unsigned integers, with -0.0
/// mapped to +0.0 so that signed zeros compare equal, as in the comparator.
/// Infinities and subnormals keep their places.
std::uint64_t direction_key(double dx);

/// Turns a (rate, index) order into the (rate, dx, index) order in place by
/// sorting each tie run STABLY by dx (signed zeros equal): entries of equal
/// dx keep their relative input order. Precondition for the (rate, dx,
/// index) result: every run is in ascending local index, as rate_order_into
/// leaves it. A run in any other index order still comes out sorted by dx,
/// with equal dx in their input order. Runs shorter than kTieRunRadixCutoff
/// are insertion-sorted, O(k^2) worst case; longer ones take an 8-pass LSD
/// radix sort of direction keys, O(k), skipping the byte passes where all
/// keys agree. `keys` grows to twice the longest run (the radix sort's two
/// buffers) and never shrinks; a call allocates nothing once keys has that
/// capacity. dx must hold no NaN.
void order_tie_runs_by_direction(std::span<const double> dx,
                                 std::span<const RateTieRun> runs,
                                 std::vector<DirectionKey>& keys,
                                 std::span<std::uint32_t> order);

/// True iff the local indices `run` are strictly ascending in (dx, index),
/// signed zeros equal: exactly the order order_tie_runs_by_direction gives
/// a run of these indices. O(run.size()), returning at the first violation.
/// A NaN in dx reads as a violation.
bool tie_run_ordered_by_direction(std::span<const double> dx,
                                  std::span<const std::uint32_t> run);

/// Turns the (rate, dx, index) order into the (rate, -dx, index) order in
/// place, in O(m): negation is exact, so inside each tie run the groups of
/// equal dx come in reverse, each still in ascending index. `dx` may be
/// either direction; only equality within a run is read.
void mirror_tie_runs(std::span<const double> dx,
                     std::span<const RateTieRun> runs,
                     std::span<std::uint32_t> order);

/// Interface for analytic service disciplines.
///
/// Contract (label equivariance): a discipline sees its connections only
/// through their rates, never through their labels or positions. Permuting
/// `rates` permutes queue_lengths_into's output, and every derivative's,
/// by the same permutation. spectral_stability's exchangeable certificate
/// relies on this to conclude DF = aI + b 11^T at a tied symmetric
/// bottleneck (docs/THEORY.md section 8); DisciplineAxioms.SymmetricInRates
/// pins it for every discipline.
class ServiceDiscipline {
 public:
  virtual ~ServiceDiscipline() = default;

  /// Mean number of packets of each connection in the system, written into
  /// `out` (rates.size() entries) in the same order as `rates`. Entries
  /// may be +infinity when the relevant load is at or beyond capacity.
  /// Both are spans so the model layer can pass slices of its flat
  /// structure-of-arrays buffers (docs/SCALING.md) without copying.
  ///
  /// UNCHECKED fast path: the caller must guarantee mu > 0 and all rates
  /// finite and >= 0 (the validated wrapper below does). Implementations
  /// must not allocate once the workspace buffers have warmed up.
  virtual void queue_lengths_into(std::span<const double> rates, double mu,
                                  DisciplineWorkspace& ws,
                                  std::span<double> out) const = 0;

  /// Validated, allocating convenience wrapper around queue_lengths_into.
  /// Requires mu > 0 and all rates finite and >= 0. Defined inline below so
  /// a call on a concrete (final) discipline devirtualizes and inlines the
  /// *_into body.
  std::vector<double> queue_lengths(const std::vector<double>& rates,
                                    double mu) const;

  /// Directional derivative of the queue-length map: writes
  ///
  ///   dq = lim_{h->0+} [Q(rates + h dx) - Q(rates)] / h
  ///
  /// into `dq` (same size and order as `rates`). This is the discipline
  /// layer of the closed-form Jacobian chain rule (docs/THEORY.md section
  /// 8): where Q is smooth the result is the exact Jacobian action DQ(r) dx,
  /// and at rate ties -- where a sorted discipline sits on a kink -- the
  /// one-sided limit is taken in the PERTURBED order (ties resolved by dx),
  /// so that the caller's two-sided average (spectral/analytic.hpp)
  /// reproduces the central-difference limit exactly.
  ///
  /// `queues` must be the output of queue_lengths_into at the same
  /// (rates, mu); saturated connections (infinite queue) get dq = 0, the
  /// correct one-sided slope of a locally pinned observable. Only meaningful
  /// when differentiable(); the default throws std::logic_error.
  ///
  /// UNCHECKED fast path: same preconditions as queue_lengths_into, plus
  /// finite dx. Must not allocate once the workspace is warm.
  virtual void queue_lengths_jvp_into(std::span<const double> rates, double mu,
                                      std::span<const double> queues,
                                      std::span<const double> dx,
                                      DisciplineWorkspace& ws,
                                      std::span<double> dq) const;

  /// The same directional derivative as queue_lengths_jvp_into, split for
  /// a caller that applies many directions at one base point. Only
  /// meaningful when jvp_tie_sensitive(); the defaults throw
  /// std::logic_error.
  ///
  /// Stage 1, once per base point: writes into `coef` (rates.size()
  /// entries) the per-position coefficients of the ordered walk and returns
  /// k, the length of the walk's unsaturated prefix; positions k and later
  /// get dq = 0. `order` is any permutation of the local indices that sorts
  /// `rates` ascending (rate_order_into's, or a perturbed one): inside an
  /// exact tie run every rate, and so every queue, is bitwise equal, so the
  /// coefficients depend on the position alone, never on how a direction
  /// permutes the run (docs/THEORY.md section 8). `queues` must be the
  /// output of queue_lengths_into at the same (rates, mu).
  virtual std::size_t jvp_coefficients_into(
      std::span<const double> rates, double mu,
      std::span<const double> queues, std::span<const std::uint32_t> order,
      std::span<double> coef) const;

  /// Stage 2, once per direction: writes dq along `dx` (finite), walking
  /// `order`, which must be the perturbed (rate, dx, index) permutation
  /// (rate_order_into, then order_tie_runs_by_direction or
  /// mirror_tie_runs), and reading coef[0, k) from stage 1 at the same base
  /// point, with k = coef.size(). O(m), allocation-free.
  virtual void queue_lengths_jvp_ordered_into(
      double mu, std::span<const double> dx,
      std::span<const std::uint32_t> order, std::span<const double> coef,
      std::span<double> dq) const;

  /// True iff queue_lengths_jvp_into returns the exact (one-sided)
  /// derivative everywhere in the preconditions' domain.
  virtual bool differentiable() const { return false; }

  /// True iff the queue map has kinks at exact rate ties (sorted disciplines
  /// like FairShare). Tie-free base points of tie-insensitive disciplines
  /// admit the single-pass smooth JVP path (spectral/analytic.hpp). A
  /// tie-sensitive discipline implements jvp_coefficients_into and
  /// queue_lengths_jvp_ordered_into.
  virtual bool jvp_tie_sensitive() const { return false; }

  /// Human-readable name ("FIFO", "FairShare", ...).
  virtual std::string_view name() const = 0;

  /// Mean per-packet sojourn time of each connection at this gateway, by
  /// Little's law W_i = Q_i / r_i. For a zero-rate connection the value is
  /// the limit as r_i -> 0+, evaluated numerically. Validated wrapper.
  std::vector<double> sojourn_times(const std::vector<double>& rates,
                                    double mu) const;

  /// Unchecked, allocation-free sojourn times. `queues` must be the result
  /// of queue_lengths_into at the same (rates, mu); when every rate is
  /// positive the sojourns are computed directly from it (W_i = Q_i / r_i),
  /// otherwise the zero-rate connections are probed exactly as the
  /// validated wrapper does. `out` must already have rates.size() entries
  /// (it may be a slice of a flat SoA buffer, which spans cannot grow).
  void sojourn_times_into(std::span<const double> rates, double mu,
                          std::span<const double> queues,
                          DisciplineWorkspace& ws,
                          std::span<double> out) const;
};

/// Validates (mu, rates) preconditions shared by all disciplines; throws
/// std::invalid_argument on violation. Counted by validation_count().
void validate_rates(std::span<const double> rates, double mu);

/// Test hook: number of rate-vector validations performed while counting
/// was enabled -- every validate_rates call plus every model-boundary check
/// that stands in for one (FlowControlModel validates once per external
/// entry point and then uses the unchecked discipline fast path). Regression
/// tests diff this counter to prove validation is not duplicated in inner
/// loops.
std::uint64_t validation_count();

/// Enables/disables the validation counter. Off (the default) the hook is a
/// relaxed load and branch -- no atomic contention on the hot path.
void set_validation_counting(bool enabled);

/// The config-file tokens naming the analytic disciplines (scenario and hunt
/// specs), and the discipline a token names; make_discipline throws
/// std::invalid_argument on any other token.
inline constexpr std::array<std::string_view, 3> kDisciplineTokens = {
    "fifo", "fair_share", "processor_sharing"};
std::shared_ptr<const ServiceDiscipline> make_discipline(
    std::string_view token);

namespace detail {
/// Bumps validation_count() without validating -- for boundary checks that
/// perform their own (stricter) validation, e.g. FlowControlModel.
void count_validation();
}  // namespace detail

inline std::vector<double> ServiceDiscipline::queue_lengths(
    const std::vector<double>& rates, double mu) const {
  validate_rates(rates, mu);
  DisciplineWorkspace ws;
  std::vector<double> out(rates.size());
  queue_lengths_into(rates, mu, ws, out);
  return out;
}

}  // namespace ffc::queueing
