// Tests for g(x), its inverse, M/M/1 analytics, preemptive-priority
// analytics, and the nonstalling feasibility constraints of §2.2.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "oracles/feasibility.hpp"
#include "oracles/mm1.hpp"
#include "oracles/priority.hpp"
#include "queueing/feasibility.hpp"

namespace {

using ffc::oracles::check_feasibility;
using ffc::oracles::Mm1;
using ffc::oracles::preemptive_priority_occupancy;
using ffc::oracles::preemptive_priority_sojourn;
using ffc::queueing::g;
using ffc::queueing::g_inverse;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(G, KnownValues) {
  EXPECT_DOUBLE_EQ(g(0.0), 0.0);
  EXPECT_DOUBLE_EQ(g(0.5), 1.0);
  EXPECT_DOUBLE_EQ(g(0.9), 9.0);
}

TEST(G, InfinityAtAndBeyondCapacity) {
  EXPECT_TRUE(std::isinf(g(1.0)));
  EXPECT_TRUE(std::isinf(g(2.0)));
}

TEST(G, NegativeThrows) { EXPECT_THROW(g(-0.1), std::invalid_argument); }

TEST(GInverse, RoundTrips) {
  for (double x : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(g_inverse(g(x)), x, 1e-12);
  }
}

TEST(GInverse, InfinityMapsToOne) { EXPECT_DOUBLE_EQ(g_inverse(kInf), 1.0); }

TEST(GInverse, NegativeThrows) {
  EXPECT_THROW(g_inverse(-1.0), std::invalid_argument);
}

TEST(Mm1Queue, StandardFormulas) {
  Mm1 q(0.5, 1.0);
  EXPECT_TRUE(q.stable());
  EXPECT_DOUBLE_EQ(q.utilization(), 0.5);
  EXPECT_DOUBLE_EQ(q.mean_number_in_system(), 1.0);
  EXPECT_DOUBLE_EQ(q.mean_number_in_queue(), 0.5);
  EXPECT_DOUBLE_EQ(q.mean_time_in_system(), 2.0);
  EXPECT_DOUBLE_EQ(q.mean_waiting_time(), 1.0);
}

TEST(Mm1Queue, LittleLawConsistency) {
  Mm1 q(0.7, 1.3);
  EXPECT_NEAR(q.mean_number_in_system(),
              q.lambda() * q.mean_time_in_system(), 1e-12);
  EXPECT_NEAR(q.mean_number_in_queue(), q.lambda() * q.mean_waiting_time(),
              1e-12);
}

TEST(Mm1Queue, GeometricOccupancyDistribution) {
  Mm1 q(0.6, 1.0);
  double total = 0.0;
  for (int n = 0; n < 200; ++n) total += q.prob_n_in_system(n);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.prob_n_in_system(0), 0.4);
}

TEST(Mm1Queue, UnstableHasInfiniteMeans) {
  Mm1 q(2.0, 1.0);
  EXPECT_FALSE(q.stable());
  EXPECT_TRUE(std::isinf(q.mean_number_in_system()));
  EXPECT_TRUE(std::isinf(q.mean_time_in_system()));
  EXPECT_EQ(q.prob_n_in_system(3), 0.0);
}

TEST(Mm1Queue, BadParametersThrow) {
  EXPECT_THROW(Mm1(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Mm1(-1.0, 1.0), std::invalid_argument);
}

TEST(Priority, CumulativeLawMatchesG) {
  // Two classes at mu = 1: L1 = g(s1), L1 + L2 = g(s1 + s2).
  const auto occ = preemptive_priority_occupancy({0.3, 0.4}, 1.0);
  EXPECT_NEAR(occ[0], g(0.3), 1e-12);
  EXPECT_NEAR(occ[0] + occ[1], g(0.7), 1e-12);
}

TEST(Priority, HighClassUnaffectedByLow) {
  const auto alone = preemptive_priority_occupancy({0.3}, 1.0);
  const auto shared = preemptive_priority_occupancy({0.3, 0.65}, 1.0);
  EXPECT_NEAR(alone[0], shared[0], 1e-12);
}

TEST(Priority, LowClassDivergesWhenCumulativeLoadSaturates) {
  const auto occ = preemptive_priority_occupancy({0.6, 0.6}, 1.0);
  EXPECT_TRUE(std::isfinite(occ[0]));
  EXPECT_TRUE(std::isinf(occ[1]));
}

TEST(Priority, ZeroRateClassHasZeroOccupancy) {
  const auto occ = preemptive_priority_occupancy({0.0, 0.5, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(occ[0], 0.0);
  EXPECT_DOUBLE_EQ(occ[2], 0.0);
}

TEST(Priority, SojournLittleLaw) {
  const std::vector<double> rates{0.2, 0.3, 0.1};
  const auto occ = preemptive_priority_occupancy(rates, 1.0);
  const auto soj = preemptive_priority_sojourn(rates, 1.0);
  for (std::size_t j = 0; j < rates.size(); ++j) {
    EXPECT_NEAR(occ[j], rates[j] * soj[j], 1e-12);
  }
}

TEST(Priority, ZeroRateSojournIsLimit) {
  // A vanishing class behind load 0.5 sees W = 1/(mu (1-0.5)^2) = 4.
  const auto soj = preemptive_priority_sojourn({0.5, 0.0}, 1.0);
  EXPECT_NEAR(soj[1], 4.0, 1e-12);
}

TEST(Priority, BadArgsThrow) {
  EXPECT_THROW(preemptive_priority_occupancy({0.1}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(preemptive_priority_occupancy({-0.1}, 1.0),
               std::invalid_argument);
}

TEST(Feasibility, ExactMm1ShareIsFeasible) {
  // FIFO queues rho_i/(1-rho): conservation exact, prefixes slack.
  const std::vector<double> r{0.1, 0.2, 0.3};
  std::vector<double> q;
  for (double ri : r) q.push_back(ri / (1.0 - 0.6));
  const auto report = check_feasibility(r, q, 1.0);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_TRUE(report.partial_sums_ok);
  EXPECT_TRUE(report.feasible());
}

TEST(Feasibility, ConservationViolationDetected) {
  const std::vector<double> r{0.2, 0.2};
  const std::vector<double> q{0.1, 0.1};  // sums to 0.2, needs g(0.4)=0.667
  const auto report = check_feasibility(r, q, 1.0);
  EXPECT_FALSE(report.conservation_ok);
}

TEST(Feasibility, PrefixViolationDetected) {
  // Total is right but the low-Q/r connection is "served faster" than any
  // nonstalling discipline could manage: prefix sum below g(prefix load).
  const double total = 0.4 / (1.0 - 0.4);  // g(0.4)
  const std::vector<double> r{0.3, 0.1};
  const std::vector<double> q{0.01, total - 0.01};
  // Sorted by Q/r: connection 0 first with load 0.3, needs >= g(0.3).
  const auto report = check_feasibility(r, q, 1.0);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_FALSE(report.partial_sums_ok);
  EXPECT_LT(report.worst_violation, 0.0);
}

TEST(Feasibility, OverloadedNeedsInfiniteQueues) {
  const std::vector<double> r{0.8, 0.8};
  const std::vector<double> finite{5.0, 5.0};
  EXPECT_FALSE(check_feasibility(r, finite, 1.0).feasible());
  const std::vector<double> infinite{kInf, kInf};
  EXPECT_TRUE(check_feasibility(r, infinite, 1.0).feasible());
}

TEST(Feasibility, EmptyIsTriviallyFeasible) {
  EXPECT_TRUE(check_feasibility({}, {}, 1.0).feasible());
}

TEST(Feasibility, SizeMismatchThrows) {
  EXPECT_THROW(check_feasibility({0.1}, {}, 1.0), std::invalid_argument);
  EXPECT_THROW(check_feasibility({0.1}, {0.1}, 0.0), std::invalid_argument);
}

}  // namespace
