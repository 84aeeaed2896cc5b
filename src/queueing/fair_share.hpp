// The Fair Share service discipline (§2.2 and Table 1 of the paper).
//
// Fair Share is a preemptive priority discipline built from a decomposition
// of the connection streams. Label connections so the rates r_1 <= ... <= r_N
// are increasing and write r_0 = 0. Priority class j (j = 1..N, highest
// first) receives, from EVERY connection k >= j, an equal substream of rate
// r_j - r_{j-1}; connections k < j contribute nothing to class j. (Table 1.)
//
// Feeding that decomposition into the preemptive-priority cumulative law
// (tests/oracles/priority.hpp) and attributing class occupancy
// symmetrically among the connections sharing a class yields the
// closed-form recursion, with sigma_i = sum_k min(r_k, r_i) / mu:
//
//   Q_i = [ g(sigma_i) - sum_{m<i} Q_m ] / (N - i + 1)
//
// Q_i depends only on rates r_j <= r_i -- the triangularity that drives
// Theorem 4 -- and Q_i is finite whenever sigma_i < 1 even if the gateway as
// a whole is overloaded (small senders are protected from large ones).
//
// Both queue_lengths and cumulative_loads run in O(N log N): one argsort of
// the rates plus prefix-sum passes (sum_k min(r_k, r_i) telescopes into a
// prefix of the sorted rates). The naive O(N^2) min-sum survives as
// cumulative_loads_reference for golden-equivalence tests and benchmarks.
//
// decompose is O(N log N) time and O(N) memory too: Table 1's share matrix
// is stored as the sorted order plus one array of class widths, because
// every row is a prefix of that array. The packet simulator's Fair Share
// server keeps only this form and picks each packet's class by binary
// search over the width prefix sums (class_for), bitwise the pick a dense
// per-connection cumulative table would make (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <vector>

#include "queueing/discipline.hpp"

namespace ffc::queueing {

/// The Table-1 decomposition of a set of connection rates into priority
/// substreams, in compact form. Indices refer to connections in their
/// ORIGINAL order; classes are numbered 0 (highest priority) .. N-1 (lowest).
///
/// Class j is the sorted position j: every connection whose sorted position
/// is >= j sends width[j] = r_(j) - r_(j-1) into it, and no other connection
/// does. So connection i's row of the N x N share matrix is a prefix of one
/// array of class widths, and O(N) storage holds the whole matrix.
struct FairShareDecomposition {
  /// Connection indices sorted by increasing rate (ties keep input order).
  std::vector<std::size_t> sorted_order;
  /// Inverse of sorted_order: connection i's lowest-priority class.
  std::vector<std::size_t> position;
  /// Rate each sharer contributes to class j (0 for a class that ties the
  /// one before it).
  std::vector<double> width;
  /// prefix[j] = width[0] + ... + width[j], summed left to right.
  std::vector<double> prefix;
  /// Total arrival rate of each class: (N - j) * width[j].
  std::vector<double> class_totals;
  /// The decomposed rates, original order.
  std::vector<double> rates;

  std::size_t num_connections() const { return sorted_order.size(); }

  /// Rate connection i contributes to priority class j.
  double share(std::size_t i, std::size_t j) const {
    return j <= position.at(i) ? width.at(j) : 0.0;
  }

  /// The class of a packet of connection k given a uniform draw u in
  /// [0, 1): the first class j < N-1 with u < cum_k(j), else N-1, where
  /// cum_k(j) = prefix[min(j, position[k])] / rates[k] is connection k's
  /// cumulative class distribution. A binary search, O(log N). A silent
  /// connection (rate 0) maps to class 0; a draw at or above
  /// cum_k(position[k]), possible only when that rounds below 1, maps to
  /// N-1. Unchecked: k < num_connections().
  std::size_t class_for(std::size_t k, double u) const;
};

class FairShare final : public ServiceDiscipline {
 public:
  void queue_lengths_into(std::span<const double> rates, double mu,
                          DisciplineWorkspace& ws,
                          std::span<double> out) const override;

  /// Closed-form directional derivative of the queue recursion. Sorting by
  /// (rate, dx, index) resolves exact rate ties the way an infinitesimal
  /// step h dx would break them, so the one-sided limit is exact on the
  /// recursion's MIN/MAX kinks; differentiating the recursion gives, in
  /// sorted positions p with prefix sums over the same order,
  ///
  ///   dsigma_p = (sum_{k<=p} dx_k + (n-1-p) dx_p) / mu
  ///   dQ_p     = (g'(sigma_p) dsigma_p - sum_{m<p} dQ_m) / (n - p)
  ///
  /// and dQ = 0 on the saturated suffix (sigma >= 1, infinite queues).
  /// Connections tied in BOTH rate and dx provably receive identical dQ
  /// through the recursion, so the index tie-break never leaks into values
  /// (docs/THEORY.md section 8). Builds the order in ws (rate_order_into,
  /// then order_tie_runs_by_direction), then runs the two stages below.
  void queue_lengths_jvp_into(std::span<const double> rates, double mu,
                              std::span<const double> queues,
                              std::span<const double> dx,
                              DisciplineWorkspace& ws,
                              std::span<double> dq) const override;
  /// coef[p] = g'(sigma_p) over the unsaturated prefix of the rate order,
  /// whose length it returns. sigma_p sums the sorted rates up to p, which
  /// inside a tie run are bitwise equal, so a perturbed order of the same
  /// rates gives the same bits. O(m).
  std::size_t jvp_coefficients_into(std::span<const double> rates, double mu,
                                    std::span<const double> queues,
                                    std::span<const std::uint32_t> order,
                                    std::span<double> coef) const override;
  /// The dQ recursion above in the (rate, dx, index) order, with
  /// g'(sigma_p) read from coef. O(m).
  void queue_lengths_jvp_ordered_into(double mu, std::span<const double> dx,
                                      std::span<const std::uint32_t> order,
                                      std::span<const double> coef,
                                      std::span<double> dq) const override;
  bool differentiable() const override { return true; }
  bool jvp_tie_sensitive() const override { return true; }

  std::string_view name() const override { return "FairShare"; }

  /// Computes the Table-1 priority decomposition for the given rates in
  /// O(N log N) time and O(N) memory. The per-connection shares sum to that
  /// connection's rate, and the class totals sum to the aggregate arrival
  /// rate.
  static FairShareDecomposition decompose(const std::vector<double>& rates);

  /// decompose() into `out`, reusing its buffers: allocation-free once they
  /// have the capacity of `rates`, and bitwise the same decomposition. The
  /// same validation: throws std::invalid_argument on a negative, NaN or
  /// infinite rate.
  static void decompose_into(std::span<const double> rates,
                             FairShareDecomposition& out);

  /// sigma_i = sum_k min(r_k, r_i) / mu, the cumulative load relevant to
  /// connection i (original index order). Validated wrapper; O(N log N).
  static std::vector<double> cumulative_loads(const std::vector<double>& rates,
                                              double mu);

  /// Unchecked, allocation-free cumulative loads: sorts once (ws.order) and
  /// accumulates prefix sums, so tied rates get bitwise-identical sigmas.
  /// Caller guarantees mu > 0 and finite, nonnegative rates.
  static void cumulative_loads_into(const std::vector<double>& rates,
                                    double mu, DisciplineWorkspace& ws,
                                    std::vector<double>& out);

  /// The original O(N^2) min-sum formulation, kept as the golden reference
  /// for equivalence tests and for the perf_model asymptotic benchmarks.
  static std::vector<double> cumulative_loads_reference(
      const std::vector<double>& rates, double mu);
};

}  // namespace ffc::queueing
