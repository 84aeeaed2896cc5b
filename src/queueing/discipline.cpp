#include "queueing/discipline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "queueing/processor_sharing.hpp"

namespace ffc::queueing {

namespace {
std::atomic<std::uint64_t> g_validations{0};
// Counting is off by default: an always-on atomic increment costs ~7ns per
// validation, measurable at small N. The relaxed load-and-branch below is
// free when disabled.
std::atomic<bool> g_counting{false};
}  // namespace

std::uint64_t validation_count() {
  return g_validations.load(std::memory_order_relaxed);
}

void set_validation_counting(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}

namespace detail {
void count_validation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_validations.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace detail

void validate_rates(std::span<const double> rates, double mu) {
  detail::count_validation();
  if (!(mu > 0.0)) {
    throw std::invalid_argument("ServiceDiscipline: mu must be > 0");
  }
  for (double r : rates) {
    if (!(r >= 0.0) || std::isnan(r)) {
      throw std::invalid_argument(
          "ServiceDiscipline: rates must be nonnegative");
    }
    if (std::isinf(r)) {
      throw std::invalid_argument("ServiceDiscipline: rates must be finite");
    }
  }
}

std::shared_ptr<const ServiceDiscipline> make_discipline(
    std::string_view token) {
  if (token == "fifo") return std::make_shared<Fifo>();
  if (token == "fair_share") return std::make_shared<FairShare>();
  if (token == "processor_sharing") {
    return std::make_shared<ProcessorSharing>();
  }
  throw std::invalid_argument("make_discipline: unknown discipline '" +
                              std::string(token) + "'");
}

void ServiceDiscipline::queue_lengths_jvp_into(
    std::span<const double> /*rates*/, double /*mu*/,
    std::span<const double> /*queues*/, std::span<const double> /*dx*/,
    DisciplineWorkspace& /*ws*/, std::span<double> /*dq*/) const {
  throw std::logic_error(
      "ServiceDiscipline::queue_lengths_jvp_into: discipline is not "
      "differentiable");
}

std::size_t ServiceDiscipline::jvp_coefficients_into(
    std::span<const double> /*rates*/, double /*mu*/,
    std::span<const double> /*queues*/,
    std::span<const std::uint32_t> /*order*/,
    std::span<double> /*coef*/) const {
  throw std::logic_error(
      "ServiceDiscipline::jvp_coefficients_into: discipline is not "
      "tie-sensitive");
}

void ServiceDiscipline::queue_lengths_jvp_ordered_into(
    double /*mu*/, std::span<const double> /*dx*/,
    std::span<const std::uint32_t> /*order*/,
    std::span<const double> /*coef*/, std::span<double> /*dq*/) const {
  throw std::logic_error(
      "ServiceDiscipline::queue_lengths_jvp_ordered_into: discipline is not "
      "tie-sensitive");
}

void rate_order_into(std::span<const double> rates,
                     std::span<std::uint32_t> order,
                     std::vector<RateTieRun>& runs) {
  const std::size_t n = rates.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("rate_order_into: 2^32 or more connections");
  }
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (rates[a] != rates[b]) return rates[a] < rates[b];
    return a < b;
  });
  std::size_t p = 0;
  while (p < n) {
    std::size_t end = p + 1;
    while (end < n && rates[order[end]] == rates[order[p]]) ++end;
    if (end - p > 1) {
      runs.push_back({static_cast<std::uint32_t>(p),
                      static_cast<std::uint32_t>(end)});
    }
    p = end;
  }
}

std::uint64_t direction_key(double dx) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(dx == 0.0 ? 0.0 : dx);
  // Negative values: flip every bit (larger magnitude, smaller key).
  // Nonnegative ones: set the sign bit, so they rank above every negative.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

namespace {

/// Stable insertion sort of keys by key alone.
void insertion_sort_keys(std::span<DirectionKey> keys) {
  for (std::size_t k = 1; k < keys.size(); ++k) {
    const DirectionKey v = keys[k];
    std::size_t j = k;
    for (; j > 0 && keys[j - 1].key > v.key; --j) keys[j] = keys[j - 1];
    keys[j] = v;
  }
}

/// Stable LSD radix sort of `keys` by key alone, one byte per pass, through
/// `spare` (same size). Returns the buffer holding the result. A pass whose
/// byte is the same in every key permutes nothing and is skipped.
std::span<DirectionKey> radix_sort_keys(std::span<DirectionKey> keys,
                                        std::span<DirectionKey> spare) {
  constexpr int kPasses = 8;
  std::array<std::array<std::uint32_t, 256>, kPasses> counts{};
  for (const DirectionKey& k : keys) {
    for (int d = 0; d < kPasses; ++d) ++counts[d][(k.key >> (8 * d)) & 0xff];
  }
  for (int d = 0; d < kPasses; ++d) {
    std::array<std::uint32_t, 256>& count = counts[d];
    if (count[(keys[0].key >> (8 * d)) & 0xff] == keys.size()) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (const DirectionKey& k : keys) {
      spare[count[(k.key >> (8 * d)) & 0xff]++] = k;
    }
    std::swap(keys, spare);
  }
  return keys;
}

}  // namespace

void order_tie_runs_by_direction(std::span<const double> dx,
                                 std::span<const RateTieRun> runs,
                                 std::vector<DirectionKey>& keys,
                                 std::span<std::uint32_t> order) {
  for (const RateTieRun& run : runs) {
    const std::size_t len = run.end - run.begin;
    if (keys.size() < 2 * len) keys.resize(2 * len);
    const std::span<DirectionKey> first(keys.data(), len);
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint32_t i = order[run.begin + k];
      first[k] = {direction_key(dx[i]), i};
    }
    std::span<const DirectionKey> sorted = first;
    if (len < kTieRunRadixCutoff) {
      insertion_sort_keys(first);
    } else {
      sorted = radix_sort_keys(first, {keys.data() + len, len});
    }
    for (std::size_t k = 0; k < len; ++k) {
      order[run.begin + k] = sorted[k].index;
    }
  }
}

bool tie_run_ordered_by_direction(std::span<const double> dx,
                                  std::span<const std::uint32_t> run) {
  for (std::size_t k = 1; k < run.size(); ++k) {
    const double prev = dx[run[k - 1]];
    const double next = dx[run[k]];
    // Double comparison is direction_key's order: -0.0 == 0.0.
    if (!(prev < next || (prev == next && run[k - 1] < run[k]))) {
      return false;
    }
  }
  return true;
}

void mirror_tie_runs(std::span<const double> dx,
                     std::span<const RateTieRun> runs,
                     std::span<std::uint32_t> order) {
  for (const RateTieRun& run : runs) {
    // Reversing the run reverses the groups and leaves each group in
    // descending index; reversing each group back restores ascending.
    const auto first = order.begin() + run.begin;
    const auto last = order.begin() + run.end;
    std::reverse(first, last);
    auto group = first;
    while (group != last) {
      auto end = group + 1;
      while (end != last && dx[*end] == dx[*group]) ++end;
      std::reverse(group, end);
      group = end;
    }
  }
}

void ServiceDiscipline::sojourn_times_into(std::span<const double> rates,
                                           double mu,
                                           std::span<const double> queues,
                                           DisciplineWorkspace& ws,
                                           std::span<double> out) const {
  // For zero-rate connections, evaluate the discipline with a vanishingly
  // small probe rate; Q_i / r_i then approximates the limiting delay of a
  // lone probe packet.
  constexpr double kProbeFraction = 1e-9;
  bool any_probe = false;
  for (double r : rates) {
    if (r == 0.0) {
      any_probe = true;
      break;
    }
  }
  const std::size_t n = rates.size();
  if (!any_probe) {
    // Fast path: reuse the queues already computed at these exact rates.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::isinf(queues[i]) ? queues[i] : queues[i] / rates[i];
    }
    return;
  }
  ws.probed.resize(n);
  ws.probe_queues.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ws.probed[i] = rates[i] == 0.0 ? kProbeFraction * mu : rates[i];
  }
  queue_lengths_into(ws.probed, mu, ws, ws.probe_queues);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::isinf(ws.probe_queues[i])
                 ? ws.probe_queues[i]
                 : ws.probe_queues[i] / ws.probed[i];
  }
}

std::vector<double> ServiceDiscipline::sojourn_times(
    const std::vector<double>& rates, double mu) const {
  validate_rates(rates, mu);
  DisciplineWorkspace ws;
  std::vector<double> queues(rates.size());
  queue_lengths_into(rates, mu, ws, queues);
  std::vector<double> out(rates.size());
  sojourn_times_into(rates, mu, queues, ws, out);
  return out;
}

}  // namespace ffc::queueing
