// Tests for the aggregate and individual congestion measures (§2.3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/congestion.hpp"
#include "helpers.hpp"

namespace {

using ffc::core::congestion_measures_into;
using ffc::core::CongestionWorkspace;
using ffc::core::FeedbackStyle;

constexpr double kInf = std::numeric_limits<double>::infinity();

double aggregate_measure(const std::vector<double>& queues) {
  return ffc::testing::congestion_measures(FeedbackStyle::Aggregate, queues)
      .at(0);
}

std::vector<double> individual_measures(const std::vector<double>& queues) {
  return ffc::testing::congestion_measures(FeedbackStyle::Individual, queues);
}

TEST(Aggregate, SumsQueues) {
  EXPECT_DOUBLE_EQ(aggregate_measure({1.0, 2.0, 3.0}), 6.0);
  EXPECT_TRUE(ffc::testing::congestion_measures(FeedbackStyle::Aggregate, {})
                  .empty());
}

TEST(Aggregate, InfinityPropagates) {
  EXPECT_TRUE(std::isinf(aggregate_measure({1.0, kInf})));
}

TEST(Individual, PaperDefinition) {
  // C_i = sum_k min(Q_k, Q_i).
  const auto c = individual_measures({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(c[0], 3.0);  // 1+1+1
  EXPECT_DOUBLE_EQ(c[1], 5.0);  // 1+2+2
  EXPECT_DOUBLE_EQ(c[2], 7.0);  // 1+2+4 = aggregate
}

TEST(Individual, SmallestSeesNTimesItsQueue) {
  const auto c = individual_measures({0.5, 3.0, 9.0, 9.0});
  EXPECT_DOUBLE_EQ(c[0], 4 * 0.5);
}

TEST(Individual, LargestSeesAggregate) {
  const std::vector<double> q{0.5, 3.0, 9.0};
  const auto c = individual_measures(q);
  EXPECT_DOUBLE_EQ(c[2], aggregate_measure(q));
}

TEST(Individual, EqualQueuesCollapseToAggregate) {
  const auto c = individual_measures({2.0, 2.0, 2.0});
  for (double ci : c) EXPECT_DOUBLE_EQ(ci, 6.0);
}

TEST(Individual, MonotoneInOwnQueue) {
  const auto lo = individual_measures({1.0, 5.0});
  const auto hi = individual_measures({2.0, 5.0});
  EXPECT_GT(hi[0], lo[0]);
}

TEST(Individual, FiniteQueueShieldedFromInfinitePeers) {
  const auto c = individual_measures({1.0, kInf, kInf});
  EXPECT_DOUBLE_EQ(c[0], 3.0);  // min(inf,1)+min(inf,1)+1
  EXPECT_TRUE(std::isinf(c[1]));
}

TEST(Individual, OrderedLikeQueues) {
  const auto c = individual_measures({0.3, 0.1, 0.7, 0.5});
  EXPECT_LT(c[1], c[0]);
  EXPECT_LT(c[0], c[3]);
  EXPECT_LT(c[3], c[2]);
}

TEST(Dispatch, AggregateReplicates) {
  const std::vector<double> q{1.0, 2.0};
  CongestionWorkspace ws;
  std::vector<double> c(q.size());
  congestion_measures_into(FeedbackStyle::Aggregate, q, ws, c);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
}

TEST(Dispatch, IndividualDelegates) {
  const std::vector<double> q{1.0, 2.0};
  CongestionWorkspace ws;
  std::vector<double> c(q.size());
  congestion_measures_into(FeedbackStyle::Individual, q, ws, c);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
}

TEST(Consistency, IndividualNeverExceedsAggregate) {
  const std::vector<double> q{0.2, 1.4, 0.9, 3.3, 0.0};
  const double total = aggregate_measure(q);
  for (double ci : individual_measures(q)) EXPECT_LE(ci, total + 1e-12);
}

}  // namespace
