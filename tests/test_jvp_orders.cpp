// Bitwise tests for the perturbed orders of the analytic Jacobian's
// tie-sensitive layers (docs/THEORY.md section 8). The Fair Share JVP walks
// its connections in (rate, dx, index) order and the individual congestion
// JVP in (Q, dq, index) order. Both comparators are strict total orders, so
// the permutation is unique: the cached base order with re-sorted tie runs,
// the mirrored -dx order and a verified candidate must each reproduce the
// full 3-key sort below EXACTLY, and so must every bit of dq and dc.
//
// The references are the full-sort layer JVPs the library ran before it
// cached the base order; they stay here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/congestion.hpp"
#include "queueing/discipline.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/feasibility.hpp"
#include "stats/rng.hpp"

namespace {

using ffc::core::CongestionWorkspace;
using ffc::core::FeedbackStyle;
using ffc::queueing::DirectionKey;
using ffc::queueing::DisciplineWorkspace;
using ffc::queueing::FairShare;
using ffc::queueing::RateTieRun;

/// The full 3-key sort: ascending key1, ties by key2, then by index.
std::vector<std::uint32_t> full_sort(std::span<const double> key1,
                                     std::span<const double> key2) {
  std::vector<std::uint32_t> order(key1.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (key1[a] != key1[b]) return key1[a] < key1[b];
    if (key2[a] != key2[b]) return key2[a] < key2[b];
    return a < b;
  });
  return order;
}

/// The Fair Share queue recursion's derivative over the full sort.
std::vector<double> reference_fair_share_jvp(std::span<const double> rates,
                                             double mu,
                                             std::span<const double> queues,
                                             std::span<const double> dx) {
  const std::size_t n = rates.size();
  const std::vector<std::uint32_t> order = full_sort(rates, dx);
  std::vector<double> dq(n);
  double prefix_rate = 0.0, prefix_dx = 0.0, prefix_dq = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order[p];
    prefix_rate += rates[i];
    prefix_dx += dx[i];
    if (std::isinf(queues[i])) {
      dq[i] = 0.0;
      continue;
    }
    const double remaining = static_cast<double>(n - 1 - p);
    const double sigma = (prefix_rate + remaining * rates[i]) / mu;
    const double dsigma = (prefix_dx + remaining * dx[i]) / mu;
    const double value = (ffc::queueing::g_prime(sigma) * dsigma - prefix_dq) /
                         static_cast<double>(n - p);
    dq[i] = value;
    prefix_dq += value;
  }
  return dq;
}

/// The individual congestion measure's derivative over the full sort.
std::vector<double> reference_congestion_jvp(std::span<const double> queues,
                                             std::span<const double> dq) {
  const std::size_t n = queues.size();
  const std::vector<std::uint32_t> order = full_sort(queues, dq);
  std::vector<double> dc(n);
  double prefix = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order[p];
    dc[i] = std::isinf(queues[i])
                ? 0.0
                : prefix + static_cast<double>(n - p) * dq[i];
    prefix += dq[i];
  }
  return dc;
}

void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const char* what,
                      int seed) {
  ASSERT_EQ(got.size(), want.size()) << what << " seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " seed " << seed << " entry " << i << ": " << got[i]
        << " vs " << want[i];
  }
}

/// One seeded gateway: rates drawn from a few levels (exact ties, zeros),
/// sometimes scaled past capacity (infinite queues), and a direction that
/// is either continuous or drawn from {-1, -0.0, +0.0, 0.5} (equal dx and
/// both signed zeros).
struct GatewayCase {
  std::vector<double> rates;
  std::vector<double> dx;
  std::vector<double> queues;
  double mu = 1.0;
};

GatewayCase make_case(int seed) {
  static constexpr std::size_t kSizes[] = {1, 2, 3, 8, 40, 200};
  static constexpr double kLevels[] = {0.0, 0.1, 0.2, 0.2, 0.35, 0.5};
  static constexpr double kDirections[] = {-1.0, -0.0, 0.0, 0.5};
  ffc::stats::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 104729 + 1);
  GatewayCase c;
  const std::size_t n = kSizes[seed % 6];
  // Aggregate load ~ 0.3 n * scale / mu: seeds with scale 1.6 saturate the
  // upper rate levels; the others stay below capacity.
  const double scale = seed % 3 == 0 ? 1.6 : 0.9;
  c.mu = 0.3 * static_cast<double>(n) + 0.05;
  c.rates.resize(n);
  c.dx.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.rates[i] = kLevels[rng.uniform_index(6)] * scale;
    c.dx[i] = seed % 2 ? kDirections[rng.uniform_index(4)]
                       : rng.uniform(-1.0, 1.0);
  }
  c.queues = FairShare().queue_lengths(c.rates, c.mu);
  return c;
}

constexpr int kCases = 240;

/// FairShare's split JVP: the coefficients from the BASE (rate, index)
/// order, as an operator precomputes them once per base point, and the
/// per-direction walk in the perturbed `order`.
std::vector<double> staged_fair_share_jvp(const GatewayCase& c,
                                          std::span<const double> dx,
                                          std::span<const std::uint32_t> order) {
  const std::size_t n = c.rates.size();
  std::vector<std::uint32_t> base(n);
  std::vector<RateTieRun> runs;
  ffc::queueing::rate_order_into(c.rates, base, runs);
  std::vector<double> coef(n);
  const FairShare fs;
  const std::size_t unsaturated =
      fs.jvp_coefficients_into(c.rates, c.mu, c.queues, base, coef);
  std::vector<double> dq(n);
  fs.queue_lengths_jvp_ordered_into(c.mu, dx, order, {coef.data(), unsaturated},
                                    dq);
  return dq;
}

TEST(JvpRateOrder, TieRunOrdersMatchFullSortBitwise) {
  std::size_t saturated = 0, zero_rates = 0, signed_zero_ties = 0, runs = 0;
  for (int seed = 0; seed < kCases; ++seed) {
    const GatewayCase c = make_case(seed);
    const std::size_t n = c.rates.size();
    std::vector<double> neg(n);
    for (std::size_t i = 0; i < n; ++i) neg[i] = -c.dx[i];

    // +dx: the cached base order with its tie runs re-sorted by direction.
    std::vector<std::uint32_t> order(n);
    std::vector<RateTieRun> tie_runs;
    std::vector<DirectionKey> keys;
    ffc::queueing::rate_order_into(c.rates, order, tie_runs);
    ffc::queueing::order_tie_runs_by_direction(c.dx, tie_runs, keys, order);
    EXPECT_EQ(order, full_sort(c.rates, c.dx)) << "seed " << seed;
    for (const RateTieRun& run : tie_runs) {
      ASSERT_GT(run.end - run.begin, 1u);
      EXPECT_EQ(c.rates[order[run.begin]], c.rates[order[run.end - 1]]);
    }

    const FairShare fs;
    const std::vector<double> dq = staged_fair_share_jvp(c, c.dx, order);
    expect_same_bits(dq, reference_fair_share_jvp(c.rates, c.mu, c.queues,
                                                  c.dx),
                     "dq(+dx)", seed);
    // The self-contained entry point builds the same order in its workspace.
    DisciplineWorkspace ws;
    std::vector<double> dq_ws(n);
    fs.queue_lengths_jvp_into(c.rates, c.mu, c.queues, c.dx, ws, dq_ws);
    expect_same_bits(dq_ws, dq, "queue_lengths_jvp_into", seed);

    // -dx: the +dx order mirrored inside each run, in O(m).
    ffc::queueing::mirror_tie_runs(c.dx, tie_runs, order);
    EXPECT_EQ(order, full_sort(c.rates, neg)) << "mirrored, seed " << seed;
    const std::vector<double> dq_neg = staged_fair_share_jvp(c, neg, order);
    expect_same_bits(dq_neg,
                     reference_fair_share_jvp(c.rates, c.mu, c.queues, neg),
                     "dq(-dx)", seed);

    for (std::size_t i = 0; i < n; ++i) {
      saturated += std::isinf(c.queues[i]) ? 1 : 0;
      zero_rates += c.rates[i] == 0.0 ? 1 : 0;
      for (std::size_t k = i + 1; k < n; ++k) {
        signed_zero_ties += c.rates[i] == c.rates[k] && c.dx[i] == 0.0 &&
                                    c.dx[k] == 0.0 &&
                                    std::signbit(c.dx[i]) !=
                                        std::signbit(c.dx[k])
                                ? 1
                                : 0;
      }
    }
    runs += tie_runs.size();
  }
  // The seeded cases do exercise every edge the orders must get right.
  EXPECT_GT(saturated, 0u);
  EXPECT_GT(zero_rates, 0u);
  EXPECT_GT(signed_zero_ties, 0u);
  EXPECT_GT(runs, 0u);
}

TEST(JvpRateOrder, AppendsRunsAfterExistingOnes) {
  // The operator stores every gateway's runs in one flat vector.
  std::vector<RateTieRun> runs{{7, 9}};
  const std::vector<double> rates{0.3, 0.1, 0.3, 0.1, 0.2, 0.3};
  std::vector<std::uint32_t> order(rates.size());
  ffc::queueing::rate_order_into(rates, order, runs);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 0, 2, 5}));
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].begin, 7u);
  EXPECT_EQ(runs[1].begin, 0u);
  EXPECT_EQ(runs[1].end, 2u);
  EXPECT_EQ(runs[2].begin, 3u);
  EXPECT_EQ(runs[2].end, 6u);
}

TEST(CongestionJvpCandidate, VerifiedCandidateMatchesFullSortBitwise) {
  // The Fair Share perturbed order as the individual measure's candidate:
  // used when std::is_sorted confirms it, the full sort otherwise, and the
  // same bits either way.
  std::size_t used = 0, rejected = 0;
  for (int seed = 0; seed < kCases; ++seed) {
    const GatewayCase c = make_case(seed);
    const std::size_t n = c.rates.size();
    std::vector<std::uint32_t> order(n);
    std::vector<RateTieRun> tie_runs;
    std::vector<DirectionKey> keys;
    ffc::queueing::rate_order_into(c.rates, order, tie_runs);
    ffc::queueing::order_tie_runs_by_direction(c.dx, tie_runs, keys, order);
    const std::vector<double> dq = staged_fair_share_jvp(c, c.dx, order);

    CongestionWorkspace ws;
    std::vector<double> dc(n);
    const bool hit = ffc::core::congestion_jvp_into(
        FeedbackStyle::Individual, c.queues, dq, ws, dc, order);
    (hit ? used : rejected) += 1;
    const std::vector<double> want = reference_congestion_jvp(c.queues, dq);
    expect_same_bits(dc, want, "dc with candidate", seed);

    std::vector<double> dc_plain(n);
    EXPECT_FALSE(ffc::core::congestion_jvp_into(FeedbackStyle::Individual,
                                                c.queues, dq, ws, dc_plain));
    expect_same_bits(dc_plain, want, "dc without candidate", seed);
  }
  EXPECT_GT(used, 0u);
}

TEST(CongestionJvpCandidate, UnsortedCandidateFallsBackToFullSort) {
  // Distinct finite queues: the reversed identity is a permutation but not
  // the (Q, dq, index) order, so the check must reject it and sort.
  const std::vector<double> queues{0.5, 0.1, 0.1, 0.9, 0.3};
  const std::vector<double> dq{0.2, -0.4, 0.7, 0.0, -0.0};
  const std::vector<std::uint32_t> reversed{4, 3, 2, 1, 0};
  CongestionWorkspace ws;
  std::vector<double> dc(queues.size());
  EXPECT_FALSE(ffc::core::congestion_jvp_into(FeedbackStyle::Individual,
                                              queues, dq, ws, dc, reversed));
  expect_same_bits(dc, reference_congestion_jvp(queues, dq), "fallback", 0);

  // The exact order itself is accepted.
  const std::vector<std::uint32_t> sorted = full_sort(queues, dq);
  std::vector<double> dc_sorted(queues.size());
  EXPECT_TRUE(ffc::core::congestion_jvp_into(FeedbackStyle::Individual,
                                             queues, dq, ws, dc_sorted,
                                             sorted));
  expect_same_bits(dc_sorted, dc, "accepted", 0);
}

/// A gateway with one tie run of `len` rates (0.25) between a few distinct
/// rates, so the run starts and ends inside the order, and a direction
/// drawn by `pattern`: 0 continuous, 1 all equal, 2 duplicates from four
/// levels, 3 signed zeros among +-1, 4 +-inf among finite values,
/// 5 subnormals, signed zeros and the smallest normals.
struct RunCase {
  std::vector<double> rates;
  std::vector<double> dx;
};

RunCase make_run_case(std::size_t len, int pattern, std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const double levels[6][4] = {
      {0.0, 0.0, 0.0, 0.0},
      {0.5, 0.5, 0.5, 0.5},
      {-1.0, 0.25, 0.5, 3.0},
      {-1.0, -0.0, 0.0, 1.0},
      {-kInf, -2.0, 7.0, kInf},
      {-kSub, 3 * kSub, -0.0, kMinNormal},
  };
  ffc::stats::Xoshiro256 rng(seed);
  RunCase c;
  const std::size_t others = 5;
  c.rates.resize(len + others);
  c.dx.resize(len + others);
  const std::size_t stride = c.rates.size() / others;
  for (std::size_t i = 0; i < c.rates.size(); ++i) {
    c.rates[i] = 0.25;
    c.dx[i] = pattern == 0 ? rng.uniform(-1.0, 1.0)
                           : levels[pattern][rng.uniform_index(4)];
  }
  // The distinct rates sit among the run's indices, below and above 0.25.
  for (std::size_t k = 0; k < others; ++k) {
    c.rates[k * stride + 1] = 0.1 + 0.08 * double(k);
  }
  return c;
}

TEST(JvpRateOrder, TieRunOrdersAcrossAlgorithmSwitches) {
  using ffc::queueing::kTieRunRadixCutoff;
  const std::size_t lengths[] = {2,
                                 kTieRunRadixCutoff - 1,
                                 kTieRunRadixCutoff,
                                 kTieRunRadixCutoff + 1,
                                 10000};
  std::vector<DirectionKey> keys;
  for (std::size_t len : lengths) {
    for (int pattern = 0; pattern < 6; ++pattern) {
      const RunCase c = make_run_case(len, pattern, len * 31 + pattern);
      const std::size_t n = c.rates.size();
      std::vector<std::uint32_t> order(n);
      std::vector<RateTieRun> runs;
      ffc::queueing::rate_order_into(c.rates, order, runs);
      ASSERT_EQ(runs.size(), 1u);
      ASSERT_EQ(runs[0].end - runs[0].begin, len);
      ffc::queueing::order_tie_runs_by_direction(c.dx, runs, keys, order);
      EXPECT_EQ(order, full_sort(c.rates, c.dx))
          << "length " << len << " pattern " << pattern;
      EXPECT_GE(keys.size(), 2 * len);

      std::vector<double> neg(n);
      for (std::size_t i = 0; i < n; ++i) neg[i] = -c.dx[i];
      ffc::queueing::mirror_tie_runs(c.dx, runs, order);
      EXPECT_EQ(order, full_sort(c.rates, neg))
          << "mirrored, length " << len << " pattern " << pattern;
      // The -dx order sorted directly agrees with the mirror.
      std::vector<std::uint32_t> direct(n);
      runs.clear();
      ffc::queueing::rate_order_into(c.rates, direct, runs);
      ffc::queueing::order_tie_runs_by_direction(neg, runs, keys, direct);
      EXPECT_EQ(direct, order)
          << "sorted -dx, length " << len << " pattern " << pattern;
    }
  }
}

TEST(JvpRateOrder, RunsOutOfIndexOrderSortStablyByDirection) {
  // The header promises, for a run NOT in ascending index, a stable sort by
  // dx: equal dx (signed zeros included) keep their input order. Both the
  // insertion sort and the radix sort keep it.
  using ffc::queueing::kTieRunRadixCutoff;
  std::vector<DirectionKey> keys;
  for (std::size_t len : {std::size_t{7}, kTieRunRadixCutoff + 3}) {
    for (int pattern : {0, 2, 3, 5}) {
      const RunCase c = make_run_case(len, pattern, 977 + len + pattern);
      std::vector<std::uint32_t> order(c.rates.size());
      std::vector<RateTieRun> runs;
      ffc::queueing::rate_order_into(c.rates, order, runs);
      ASSERT_EQ(runs.size(), 1u);
      const auto first = order.begin() + runs[0].begin;
      const auto last = order.begin() + runs[0].end;
      std::reverse(first, last);  // descending index
      std::vector<std::uint32_t> want(order);
      std::stable_sort(want.begin() + runs[0].begin,
                       want.begin() + runs[0].end,
                       [&](std::uint32_t a, std::uint32_t b) {
                         return c.dx[a] < c.dx[b];
                       });
      ffc::queueing::order_tie_runs_by_direction(c.dx, runs, keys, order);
      EXPECT_EQ(order, want) << "length " << len << " pattern " << pattern;
      // Equal-dx entries really do come out in descending index here.
      bool descending_group = false;
      for (std::uint32_t p = runs[0].begin + 1; p < runs[0].end; ++p) {
        descending_group = descending_group ||
                           (c.dx[order[p - 1]] == c.dx[order[p]] &&
                            order[p - 1] > order[p]);
      }
      EXPECT_TRUE(descending_group || pattern == 0)
          << "length " << len << " pattern " << pattern;
    }
  }
}

TEST(JvpRateOrder, DirectionKeyPreservesOrderAndMergesSignedZeros) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const std::vector<double> ascending = {
      -kInf, -kMax, -1.5, -1.0, -kMinNormal, -2 * kSub, -kSub, 0.0,
      kSub,  2 * kSub, kMinNormal, 1.0, 1.5, kMax, kInf};
  for (std::size_t k = 1; k < ascending.size(); ++k) {
    EXPECT_LT(ffc::queueing::direction_key(ascending[k - 1]),
              ffc::queueing::direction_key(ascending[k]))
        << ascending[k - 1] << " vs " << ascending[k];
  }
  EXPECT_EQ(ffc::queueing::direction_key(-0.0),
            ffc::queueing::direction_key(0.0));
}

}  // namespace
