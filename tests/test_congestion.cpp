// Tests for the aggregate and individual congestion measures (§2.3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/congestion.hpp"

namespace {

using ffc::core::aggregate_congestion;
using ffc::core::congestion_measures_into;
using ffc::core::CongestionWorkspace;
using ffc::core::FeedbackStyle;
using ffc::core::individual_congestion;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Aggregate, SumsQueues) {
  EXPECT_DOUBLE_EQ(aggregate_congestion({1.0, 2.0, 3.0}), 6.0);
  EXPECT_DOUBLE_EQ(aggregate_congestion({}), 0.0);
}

TEST(Aggregate, InfinityPropagates) {
  EXPECT_TRUE(std::isinf(aggregate_congestion({1.0, kInf})));
}

TEST(Aggregate, RejectsNegative) {
  EXPECT_THROW(aggregate_congestion({-1.0}), std::invalid_argument);
}

TEST(Individual, PaperDefinition) {
  // C_i = sum_k min(Q_k, Q_i).
  const auto c = individual_congestion({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(c[0], 3.0);  // 1+1+1
  EXPECT_DOUBLE_EQ(c[1], 5.0);  // 1+2+2
  EXPECT_DOUBLE_EQ(c[2], 7.0);  // 1+2+4 = aggregate
}

TEST(Individual, SmallestSeesNTimesItsQueue) {
  const auto c = individual_congestion({0.5, 3.0, 9.0, 9.0});
  EXPECT_DOUBLE_EQ(c[0], 4 * 0.5);
}

TEST(Individual, LargestSeesAggregate) {
  const std::vector<double> q{0.5, 3.0, 9.0};
  const auto c = individual_congestion(q);
  EXPECT_DOUBLE_EQ(c[2], aggregate_congestion(q));
}

TEST(Individual, EqualQueuesCollapseToAggregate) {
  const auto c = individual_congestion({2.0, 2.0, 2.0});
  for (double ci : c) EXPECT_DOUBLE_EQ(ci, 6.0);
}

TEST(Individual, MonotoneInOwnQueue) {
  const auto lo = individual_congestion({1.0, 5.0});
  const auto hi = individual_congestion({2.0, 5.0});
  EXPECT_GT(hi[0], lo[0]);
}

TEST(Individual, FiniteQueueShieldedFromInfinitePeers) {
  const auto c = individual_congestion({1.0, kInf, kInf});
  EXPECT_DOUBLE_EQ(c[0], 3.0);  // min(inf,1)+min(inf,1)+1
  EXPECT_TRUE(std::isinf(c[1]));
}

TEST(Individual, OrderedLikeQueues) {
  const auto c = individual_congestion({0.3, 0.1, 0.7, 0.5});
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
  const double total = aggregate_congestion(q);
  for (double ci : individual_congestion(q)) EXPECT_LE(ci, total + 1e-12);
}

}  // namespace
