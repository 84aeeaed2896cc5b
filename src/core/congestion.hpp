// Congestion measures at a gateway (§2.3.1).
//
// Given the per-connection mean queue lengths Q^a at gateway a:
//   * aggregate:  C^a   = sum_k Q^a_k   (same measure for every connection;
//                 discipline-independent by work conservation)
//   * individual: C^a_i = sum_k min(Q^a_k, Q^a_i)   (reflects connection i's
//                 own contribution; never charges i for queues larger than
//                 its own)
// The gateway then signals b^a_i = B(C^a_i or C^a), and each source combines
// signals across its path bottleneck-style: b_i = max_a b^a_i.
//
// The individual measure is computed in O(N log N): sort the queues once,
// then sum_k min(Q_k, Q_i) telescopes into a prefix sum (everything at or
// below Q_i contributes itself, everything above contributes Q_i). The
// naive O(N^2) min-sum survives as individual_congestion_reference for
// golden-equivalence tests and benchmarks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace ffc::core {

/// Which congestion measure gateways feed into the signalling function.
enum class FeedbackStyle {
  Aggregate,
  Individual,
};

/// The config-file tokens naming the feedback styles (scenario and hunt
/// specs), in enum order, and the style a token names; feedback_style
/// throws std::invalid_argument on any other token.
inline constexpr std::array<std::string_view, 2> kFeedbackTokens = {
    "aggregate", "individual"};
FeedbackStyle feedback_style(std::string_view token);

/// Reusable scratch for the allocation-free congestion fast path.
struct CongestionWorkspace {
  std::vector<std::size_t> order;  ///< sort permutation of the queues
};

/// C^a = sum of queue lengths. Infinite entries propagate to +infinity.
double aggregate_congestion(const std::vector<double>& queues);

/// C^a_i = sum_k min(Q_k, Q_i) for every connection i at this gateway.
/// C_i is infinite iff Q_i itself is infinite; a connection with a finite
/// queue sees a finite measure even when other queues have diverged
/// (min(inf, Q_i) = Q_i) -- which is exactly how Fair Share protects small
/// senders at an overloaded gateway.
std::vector<double> individual_congestion(const std::vector<double>& queues);

/// The original O(N^2) min-sum formulation, kept as the golden reference
/// for equivalence tests and benchmarks.
std::vector<double> individual_congestion_reference(
    const std::vector<double>& queues);

/// Dispatches on `style`: writes the per-connection congestion measures
/// into `out` (aggregate replicates C^a for every connection), reusing the
/// workspace's sort buffer. `out` must already have queues.size() entries
/// (it may be a slice of a flat SoA buffer). Unchecked and allocation-free
/// once ws is warm: the caller guarantees the queues are nonnegative and
/// non-NaN (entries may be +infinity) -- FlowControlModel's observables and
/// the packet simulator's measured queues satisfy this by construction.
void congestion_measures_into(FeedbackStyle style,
                              std::span<const double> queues,
                              CongestionWorkspace& ws, std::span<double> out);

/// Directional derivative of the congestion measures: given the queue
/// perturbations `dq` (the discipline JVP at the same point), writes
/// dC_i into `dc` (same size as `queues`). The congestion layer of the
/// closed-form Jacobian chain rule (docs/THEORY.md section 8):
///
///   * aggregate:  dC = sum_k dq_k, replicated to every connection;
///   * individual: dC_i = sum_{Q_k < Q_i} dq_k + sum_{Q_k >= Q_i} dq_i with
///     exact queue ties resolved by dq (the order Q + h dq assumes), i.e.
///     the one-sided derivative of sum_k min(Q_k, Q_i) on its kinks.
///
/// A connection with an infinite queue has a pinned (infinite) measure and
/// gets dc = 0; infinite queues still contribute the FINITE connections'
/// own dq_i through the min. Unchecked and allocation-free once ws is warm
/// (one call at this size, whether or not its candidate was used).
///
/// The individual measure walks the queues in (Q, dq, index) order. A
/// caller that already holds a permutation likely to be that order (a
/// sorted discipline's perturbed rate order: Q is increasing in the rate,
/// and inside a rate tie run dQ increases with dx) passes it as
/// `candidate`; it is used iff std::is_sorted confirms it under the exact
/// comparator, else the full sort runs. Either way the permutation, and so
/// every bit of dc, is the same. Returns true iff the candidate was used.
bool congestion_jvp_into(FeedbackStyle style, std::span<const double> queues,
                         std::span<const double> dq, CongestionWorkspace& ws,
                         std::span<double> dc,
                         std::span<const std::uint32_t> candidate = {});

}  // namespace ffc::core
