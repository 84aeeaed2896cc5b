#include "core/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace ffc::core {

FeedbackStyle feedback_style(std::string_view token) {
  if (token == kFeedbackTokens[0]) return FeedbackStyle::Aggregate;
  if (token == kFeedbackTokens[1]) return FeedbackStyle::Individual;
  throw std::invalid_argument("feedback_style: unknown feedback style '" +
                              std::string(token) + "'");
}

namespace {

void check_queues(const std::vector<double>& queues) {
  for (double q : queues) {
    if (std::isnan(q) || q < 0.0) {
      throw std::invalid_argument("congestion: queues must be >= 0");
    }
  }
}

// Argsort with index tie-break: reproduces stable_sort's permutation
// without its temporary allocation (this runs in the per-step fast path).
void argsort_into(std::span<const double> values,
                  std::vector<std::size_t>& order) {
  order.resize(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
}

void individual_congestion_into(std::span<const double> queues,
                                CongestionWorkspace& ws,
                                std::span<double> out) {
  const std::size_t n = queues.size();
  argsort_into(queues, ws.order);

  // sum_k min(Q_k, Q_i) over the sorted order: queues at or below Q_i
  // contribute themselves, larger ones contribute Q_i. Walking tie groups
  // keeps tied connections bitwise identical and avoids 0 * inf for an
  // all-infinite tail group.
  double prefix = 0.0;  // sum of sorted queues strictly before the group
  std::size_t p = 0;
  while (p < n) {
    const double qp = queues[ws.order[p]];
    std::size_t end = p;
    double group_sum = 0.0;
    while (end < n && queues[ws.order[end]] == qp) {
      group_sum += qp;
      ++end;
    }
    const std::size_t above = n - end;
    const double c =
        prefix + group_sum + (above == 0 ? 0.0 : static_cast<double>(above) * qp);
    for (std::size_t k = p; k < end; ++k) out[ws.order[k]] = c;
    prefix += group_sum;
    p = end;
  }
}

// Differentiating C_i = sum_k min(Q_k, Q_i) in the perturbed order: every
// queue sorted strictly before i contributes its own dq_k, and i itself
// plus everything sorted after contributes dq_i. Infinite queues sort
// last; their measure is pinned (dc = 0) but they still sit strictly
// above every finite queue, so they feed dq_i to the finite connections.
template <typename Index>
void perturbed_prefix_walk(std::span<const double> queues,
                           std::span<const double> dq,
                           std::span<const Index> order,
                           std::span<double> dc) {
  const std::size_t n = queues.size();
  double prefix = 0.0;  // sum of dq over sorted positions strictly before p
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order[p];
    dc[i] = std::isinf(queues[i])
                ? 0.0
                : prefix + static_cast<double>(n - p) * dq[i];
    prefix += dq[i];
  }
}

}  // namespace

double aggregate_congestion(const std::vector<double>& queues) {
  check_queues(queues);
  double total = 0.0;
  for (double q : queues) total += q;
  return total;
}

std::vector<double> individual_congestion(const std::vector<double>& queues) {
  check_queues(queues);
  CongestionWorkspace ws;
  std::vector<double> out(queues.size());
  individual_congestion_into(queues, ws, out);
  return out;
}

std::vector<double> individual_congestion_reference(
    const std::vector<double>& queues) {
  check_queues(queues);
  std::vector<double> c(queues.size(), 0.0);
  for (std::size_t i = 0; i < queues.size(); ++i) {
    double sum = 0.0;
    for (double qk : queues) sum += std::min(qk, queues[i]);
    c[i] = sum;
  }
  return c;
}

void congestion_measures_into(FeedbackStyle style,
                              std::span<const double> queues,
                              CongestionWorkspace& ws, std::span<double> out) {
  if (style == FeedbackStyle::Aggregate) {
    double total = 0.0;
    for (double q : queues) total += q;
    std::fill(out.begin(), out.end(), total);
    return;
  }
  individual_congestion_into(queues, ws, out);
}

bool congestion_jvp_into(FeedbackStyle style, std::span<const double> queues,
                         std::span<const double> dq, CongestionWorkspace& ws,
                         std::span<double> dc,
                         std::span<const std::uint32_t> candidate) {
  const std::size_t n = queues.size();
  if (style == FeedbackStyle::Aggregate) {
    double total = 0.0;
    for (double d : dq) total += d;
    for (std::size_t i = 0; i < n; ++i) dc[i] = total;
    return false;
  }

  // The perturbed sort: queues ascending, exact queue ties broken by dq
  // (the order Q + h dq assumes for every small h > 0), then by index. For
  // a tie-free base this is the plain queue argsort.
  const auto perturbed = [&](std::size_t a, std::size_t b) {
    if (queues[a] != queues[b]) return queues[a] < queues[b];
    if (dq[a] != dq[b]) return dq[a] < dq[b];
    return a < b;
  };
  // Sized whether or not the candidate holds, so that a first rejection
  // after accepted calls at the same size does not allocate.
  std::vector<std::size_t>& order = ws.order;
  order.reserve(n);
  const bool use_candidate =
      !candidate.empty() && candidate.size() == n &&
      std::is_sorted(candidate.begin(), candidate.end(), perturbed);
  if (use_candidate) {
    perturbed_prefix_walk(queues, dq, candidate, dc);
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), perturbed);
    perturbed_prefix_walk(queues, dq, std::span<const std::size_t>(order), dc);
  }
  return use_candidate;
}

}  // namespace ffc::core
