#include "queueing/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "queueing/feasibility.hpp"

namespace ffc::queueing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Argsort by increasing rate with ties keeping input order. Index tie-break
// under std::sort reproduces std::stable_sort's permutation without the
// temporary buffer stable_sort allocates -- this runs inside the
// allocation-free fast path.
void sorted_by_rate_into(std::span<const double> rates,
                         std::vector<std::size_t>& order) {
  order.resize(rates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rates[a] != rates[b]) return rates[a] < rates[b];
    return a < b;
  });
}

}  // namespace

void FairShare::cumulative_loads_into(const std::vector<double>& rates,
                                      double mu, DisciplineWorkspace& ws,
                                      std::vector<double>& out) {
  const std::size_t n = rates.size();
  out.resize(n);
  sorted_by_rate_into(rates, ws.order);

  // sum_k min(r_k, r_i) telescopes over the sorted order: every rate at or
  // below r_i contributes itself, every larger one contributes r_i. Walking
  // tie groups keeps tied connections bitwise identical.
  double prefix = 0.0;  // sum of sorted rates strictly before the group
  std::size_t p = 0;
  while (p < n) {
    const double rp = rates[ws.order[p]];
    std::size_t end = p;
    double group_sum = 0.0;
    while (end < n && rates[ws.order[end]] == rp) {
      group_sum += rp;
      ++end;
    }
    const double sigma =
        (prefix + group_sum + static_cast<double>(n - end) * rp) / mu;
    for (std::size_t k = p; k < end; ++k) out[ws.order[k]] = sigma;
    prefix += group_sum;
    p = end;
  }
}

std::vector<double> FairShare::cumulative_loads(
    const std::vector<double>& rates, double mu) {
  validate_rates(rates, mu);
  DisciplineWorkspace ws;
  std::vector<double> sigma;
  cumulative_loads_into(rates, mu, ws, sigma);
  return sigma;
}

std::vector<double> FairShare::cumulative_loads_reference(
    const std::vector<double>& rates, double mu) {
  validate_rates(rates, mu);
  std::vector<double> sigma(rates.size(), 0.0);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    double sum = 0.0;
    for (double rk : rates) sum += std::min(rk, rates[i]);
    sigma[i] = sum / mu;
  }
  return sigma;
}

void FairShare::queue_lengths_into(std::span<const double> rates, double mu,
                                   DisciplineWorkspace& ws,
                                   std::span<double> out) const {
  const std::size_t n = rates.size();
  if (n == 0) return;

  sorted_by_rate_into(rates, ws.order);
  const std::vector<std::size_t>& order = ws.order;

  // Recursion over sorted positions p = 0..n-1:
  //   sigma_p   = (sum_{k<=p} r_k + (n-1-p) r_p) / mu
  //   Q_p       = (g(sigma_p) - sum_{m<p} Q_m) / (n - p)
  double prefix_rate = 0.0;   // sum of sorted rates up to and including p
  double prefix_queue = 0.0;  // sum of Q over sorted positions < p
  bool saturated = false;     // once sigma_p >= 1, all later Q are infinite
  for (std::size_t p = 0; p < n; ++p) {
    const double rp = rates[order[p]];
    prefix_rate += rp;
    if (saturated) {
      out[order[p]] = rp > 0.0 ? kInf : 0.0;
      continue;
    }
    const double sigma =
        (prefix_rate + static_cast<double>(n - 1 - p) * rp) / mu;
    if (sigma >= 1.0) {
      saturated = true;
      out[order[p]] = rp > 0.0 ? kInf : 0.0;
      continue;
    }
    const double value =
        (g(sigma) - prefix_queue) / static_cast<double>(n - p);
    out[order[p]] = value;
    prefix_queue += value;
  }

  // Exact ties must get exactly equal queues; the recursion already yields
  // that analytically, but enforce it bit-for-bit by averaging tie groups.
  std::size_t p = 0;
  while (p < n) {
    std::size_t end = p + 1;
    while (end < n && rates[order[end]] == rates[order[p]]) ++end;
    if (end - p > 1) {
      double sum = 0.0;
      bool infinite = false;
      for (std::size_t k = p; k < end; ++k) {
        infinite = infinite || std::isinf(out[order[k]]);
        sum += out[order[k]];
      }
      const double avg =
          infinite ? kInf : sum / static_cast<double>(end - p);
      for (std::size_t k = p; k < end; ++k) out[order[k]] = avg;
    }
    p = end;
  }
}

void FairShare::queue_lengths_jvp_into(std::span<const double> rates,
                                       double mu,
                                       std::span<const double> queues,
                                       std::span<const double> dx,
                                       DisciplineWorkspace& ws,
                                       std::span<double> dq) const {
  // The perturbed sort: rates ascending, exact rate ties broken by dx (the
  // order r + h dx assumes for every small h > 0), then by index. For a
  // tie-free base this is the plain rate sort, so the direction does not
  // change the permutation.
  ws.jvp_order.resize(rates.size());
  ws.tie_runs.clear();
  rate_order_into(rates, ws.jvp_order, ws.tie_runs);
  order_tie_runs_by_direction(dx, ws.tie_runs, ws.keys, ws.jvp_order);
  ws.jvp_coefficients.resize(rates.size());
  const std::size_t unsaturated = jvp_coefficients_into(
      rates, mu, queues, ws.jvp_order, ws.jvp_coefficients);
  queue_lengths_jvp_ordered_into(
      mu, dx, ws.jvp_order, {ws.jvp_coefficients.data(), unsaturated}, dq);
}

std::size_t FairShare::jvp_coefficients_into(
    std::span<const double> rates, double mu, std::span<const double> queues,
    std::span<const std::uint32_t> order, std::span<double> coef) const {
  // The queue recursion's infinite queues form a suffix of the rate order
  // (once sigma_p >= 1 every later queue is infinite, and tie averaging
  // keeps a run all finite or all infinite), so the walk stops at the
  // first one.
  const std::size_t n = rates.size();
  double prefix_rate = 0.0;  // sum of sorted rates up to and including p
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order[p];
    if (std::isinf(queues[i])) return p;
    prefix_rate += rates[i];
    const double remaining = static_cast<double>(n - 1 - p);
    coef[p] = g_prime((prefix_rate + remaining * rates[i]) / mu);
  }
  return n;
}

void FairShare::queue_lengths_jvp_ordered_into(
    double mu, std::span<const double> dx,
    std::span<const std::uint32_t> order, std::span<const double> coef,
    std::span<double> dq) const {
  const std::size_t n = order.size();
  const std::size_t unsaturated = coef.size();
  double prefix_dx = 0.0;  // sum of sorted dx up to and including p
  double prefix_dq = 0.0;  // sum of dQ over sorted positions < p
  for (std::size_t p = 0; p < unsaturated; ++p) {
    const std::size_t i = order[p];
    prefix_dx += dx[i];
    const double remaining = static_cast<double>(n - 1 - p);
    const double dsigma = (prefix_dx + remaining * dx[i]) / mu;
    const double value =
        (coef[p] * dsigma - prefix_dq) / static_cast<double>(n - p);
    dq[i] = value;
    prefix_dq += value;
  }
  // Saturated suffix: the queue is pinned at +infinity on both sides of the
  // perturbation, so its one-sided slope is 0.
  for (std::size_t p = unsaturated; p < n; ++p) dq[order[p]] = 0.0;
}

std::size_t FairShareDecomposition::class_for(std::size_t k, double u) const {
  const std::size_t n = width.size();
  const double r = rates[k];
  if (n <= 1 || !(r > 0.0)) return 0;
  // cum_k(j) is nondecreasing in j (prefix sums of nonnegative widths over
  // one positive divisor) and constant past position[k], so the first
  // j < n-1 with u < cum_k(j) is a partition point of [0, min(pos_k, n-2)];
  // if there is none, no later j < n-1 qualifies either. The search runs
  // over all of [0, n-2] with prefix[j] / r in place of cum_k(j): that
  // ratio is nondecreasing in j as well and equals cum_k(j) up to
  // position[k], so its first hit, clamped to `last`, is the same class.
  // Every search at a gateway then walks one implicit search tree over
  // [0, n-2], whatever the connection, so the entries of `prefix` near its
  // root stay cached.
  const std::size_t last = std::min(position[k], n - 2);
  std::size_t lo = 0;
  std::size_t hi = n - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (u >= prefix[mid] / r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo <= last ? lo : n - 1;
}

FairShareDecomposition FairShare::decompose(const std::vector<double>& rates) {
  FairShareDecomposition d;
  decompose_into(rates, d);
  return d;
}

void FairShare::decompose_into(std::span<const double> rates,
                               FairShareDecomposition& d) {
  for (double r : rates) {
    if (!(r >= 0.0) || std::isinf(r)) {
      throw std::invalid_argument("FairShare::decompose: bad rate");
    }
  }
  const std::size_t n = rates.size();
  d.rates.assign(rates.begin(), rates.end());
  sorted_by_rate_into(rates, d.sorted_order);
  d.position.resize(n);
  d.width.resize(n);
  d.prefix.resize(n);
  d.class_totals.resize(n);

  // Class j (sorted position j) carries rate r_(j) - r_(j-1) from every
  // connection whose rate is >= r_(j) -- i.e. sorted positions >= j.
  double prev = 0.0;
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    d.position[d.sorted_order[j]] = j;
    const double rj = rates[d.sorted_order[j]];
    const double increment = rj - prev;
    prev = rj;
    d.width[j] = increment > 0.0 ? increment : 0.0;  // a tie: zero width
    acc += d.width[j];
    d.prefix[j] = acc;
    d.class_totals[j] = static_cast<double>(n - j) * d.width[j];
  }
}

}  // namespace ffc::queueing
