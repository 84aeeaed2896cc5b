// Tests for the RNG, the online and time-weighted statistics, and the KS oracle.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "oracles/ks.hpp"
#include "oracles/xoshiro_jump.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace {

using ffc::stats::OnlineStats;
using ffc::stats::TimeWeightedStats;
using ffc::stats::Xoshiro256;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(13);
  const double rate = 2.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialRejectsBadRate) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexBounds) {
  Xoshiro256 rng(17);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(23);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256 rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependentlyPositioned) {
  Xoshiro256 parent(99);
  Xoshiro256 child = parent.split();
  // Child continues the old stream; parent jumped 2^128 ahead. They must not
  // produce identical sequences.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMatchesReferenceJump) {
  // The table-driven jump against the published bit-by-bit one: on every
  // unit state (each table entry's building block), the zero state and
  // 1000 SplitMix64-seeded states, as Xoshiro256's constructor seeds them.
  using State = std::array<std::uint64_t, 4>;
  for (std::size_t k = 0; k < 256; ++k) {
    State unit{0, 0, 0, 0};
    unit[k / 64] = std::uint64_t{1} << (k % 64);
    EXPECT_EQ(Xoshiro256::jump(unit), ffc::oracles::reference_jump(unit))
        << "unit state " << k;
  }
  const State zero{0, 0, 0, 0};
  EXPECT_EQ(Xoshiro256::jump(zero), zero);
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    ffc::stats::SplitMix64 sm(seed);
    State s;
    for (auto& word : s) word = sm.next();
    EXPECT_EQ(Xoshiro256::jump(s), ffc::oracles::reference_jump(s))
        << "seed " << seed;
  }
  // split() itself: FNV-1a over each child's first draw along 10^4
  // successive splits from seed 99, then the parent's next draw; recorded
  // from the bit-by-bit split().
  Xoshiro256 parent(99);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b, v >>= 8) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (int i = 0; i < 10000; ++i) fold(parent.split().next());
  fold(parent.next());
  EXPECT_EQ(h, 0xe08401db225733f4ULL);
}

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci_halfwidth(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 3 + i * 0.01;
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-12);
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeightedStats s(0.0, 3.0);
  s.advance_to(10.0);
  EXPECT_DOUBLE_EQ(s.time_average(), 3.0);
}

TEST(TimeWeighted, StepSignal) {
  TimeWeightedStats s(0.0, 0.0);
  s.update(2.0, 4.0);   // value 0 for [0,2), then 4
  s.advance_to(4.0);    // value 4 for [2,4)
  EXPECT_DOUBLE_EQ(s.time_average(), (0.0 * 2 + 4.0 * 2) / 4.0);
}

TEST(TimeWeighted, ResetDiscardsHistory) {
  TimeWeightedStats s(0.0, 10.0);
  s.advance_to(5.0);
  s.reset(5.0);
  s.update(6.0, 2.0);
  s.advance_to(7.0);
  EXPECT_DOUBLE_EQ(s.time_average(), (10.0 * 1 + 2.0 * 1) / 2.0);
}

TEST(TimeWeighted, BackwardsTimeThrows) {
  TimeWeightedStats s(5.0, 1.0);
  EXPECT_THROW(s.advance_to(4.0), std::invalid_argument);
}

TEST(KsStatistic, ZeroForPerfectFit) {
  // Empirical CDF of {0.25, 0.75} vs uniform: max deviation is 0.25.
  const double d = ffc::oracles::ks_statistic(
      {0.25, 0.75}, [](double x) { return std::clamp(x, 0.0, 1.0); });
  EXPECT_NEAR(d, 0.25, 1e-12);
}

TEST(KsStatistic, AcceptsMatchingExponentialSamples) {
  Xoshiro256 rng(77);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.exponential(2.0));
  const double d = ffc::oracles::ks_statistic(
      samples, [](double x) { return 1.0 - std::exp(-2.0 * x); });
  EXPECT_LT(d, ffc::oracles::ks_critical_value_5pct(samples.size()) * 1.5);
}

TEST(KsStatistic, RejectsWrongDistribution) {
  Xoshiro256 rng(78);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.exponential(2.0));
  // Claim the rate is 1.0 instead of 2.0: KS must blow past the critical
  // value by a wide margin.
  const double d = ffc::oracles::ks_statistic(
      samples, [](double x) { return 1.0 - std::exp(-x); });
  EXPECT_GT(d, 10.0 * ffc::oracles::ks_critical_value_5pct(samples.size()));
}

TEST(KsStatistic, Validation) {
  EXPECT_THROW(ffc::oracles::ks_statistic({}, [](double) { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(ffc::oracles::ks_statistic({1.0}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(ffc::oracles::ks_critical_value_5pct(0), std::invalid_argument);
}

}  // namespace
