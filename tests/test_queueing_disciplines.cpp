// Tests for the FIFO and Fair Share service disciplines: closed forms,
// the §2.2 axioms (symmetry, time-scale invariance, monotonicity,
// feasibility), the Table-1 decomposition, and the structural properties the
// paper's theorems rely on (triangularity; protection of small senders).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "oracles/feasibility.hpp"
#include "oracles/priority.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/feasibility.hpp"
#include "queueing/fifo.hpp"
#include "queueing/processor_sharing.hpp"
#include "stats/rng.hpp"

namespace ffc::queueing {

// gtest prints a TEST_P parameter into each test's listed name, and ctest
// registers that name. Print a discipline by its name, not its address, so
// the registered names are the same in every build.
void PrintTo(const ServiceDiscipline* d, std::ostream* os) {
  *os << d->name();
}

}  // namespace ffc::queueing

namespace {

using ffc::oracles::check_feasibility;
using ffc::oracles::preemptive_priority_occupancy;
using ffc::queueing::FairShare;
using ffc::queueing::Fifo;
using ffc::queueing::g;
using ffc::queueing::ServiceDiscipline;
using ffc::stats::Xoshiro256;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-connection sojourn times through the unchecked fast path, on queues
// from the validated queue_lengths wrapper.
std::vector<double> sojourns(const ServiceDiscipline& d,
                             const std::vector<double>& rates, double mu) {
  const std::vector<double> queues = d.queue_lengths(rates, mu);
  ffc::queueing::DisciplineWorkspace ws;
  std::vector<double> out(rates.size());
  d.sojourn_times_into(rates, mu, queues, ws, out);
  return out;
}

std::vector<double> random_rates(Xoshiro256& rng, std::size_t n,
                                 double load_cap, double mu) {
  std::vector<double> r(n);
  double total = 0.0;
  for (double& x : r) {
    x = rng.uniform(0.0, 1.0);
    total += x;
  }
  const double target = rng.uniform(0.1, load_cap) * mu;
  for (double& x : r) x *= target / total;
  return r;
}

TEST(Fifo, ClosedForm) {
  Fifo fifo;
  const auto q = fifo.queue_lengths({0.1, 0.3}, 1.0);
  EXPECT_NEAR(q[0], 0.1 / 0.6, 1e-12);
  EXPECT_NEAR(q[1], 0.3 / 0.6, 1e-12);
}

TEST(Fifo, OverloadDivergesActiveConnectionsOnly) {
  Fifo fifo;
  const auto q = fifo.queue_lengths({0.7, 0.7, 0.0}, 1.0);
  EXPECT_TRUE(std::isinf(q[0]));
  EXPECT_TRUE(std::isinf(q[1]));
  EXPECT_DOUBLE_EQ(q[2], 0.0);
}

TEST(Fifo, SojournEqualForAllConnections) {
  Fifo fifo;
  const auto w = sojourns(fifo, {0.2, 0.4}, 1.0);
  EXPECT_NEAR(w[0], w[1], 1e-9);
  EXPECT_NEAR(w[0], 1.0 / (1.0 - 0.6), 1e-6);
}

TEST(Fifo, RejectsBadArguments) {
  Fifo fifo;
  EXPECT_THROW(fifo.queue_lengths({0.1}, 0.0), std::invalid_argument);
  EXPECT_THROW(fifo.queue_lengths({-0.1}, 1.0), std::invalid_argument);
  EXPECT_THROW(fifo.queue_lengths({kInf}, 1.0), std::invalid_argument);
}

TEST(FairShare, SingleConnectionIsPlainMm1) {
  FairShare fs;
  const auto q = fs.queue_lengths({0.4}, 1.0);
  EXPECT_NEAR(q[0], g(0.4), 1e-12);
}

TEST(FairShare, EqualRatesSplitTotalEvenly) {
  FairShare fs;
  const auto q = fs.queue_lengths({0.2, 0.2, 0.2}, 1.0);
  for (double qi : q) EXPECT_NEAR(qi, g(0.6) / 3.0, 1e-12);
}

TEST(FairShare, MatchesPriorityDecompositionGroundTruth) {
  // Feed the Table-1 class rates through the generic preemptive-priority
  // law and attribute class occupancy evenly among sharing connections; the
  // closed-form recursion must agree.
  FairShare fs;
  const std::vector<double> rates{0.05, 0.15, 0.25, 0.35};
  const double mu = 1.0;
  const auto decomposition = FairShare::decompose(rates);
  const auto class_occ =
      preemptive_priority_occupancy(decomposition.class_totals, mu);
  std::vector<double> expected(rates.size(), 0.0);
  for (std::size_t j = 0; j < rates.size(); ++j) {
    // Class j is shared by the connections whose decomposition share is > 0.
    std::size_t sharers = 0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
      sharers += decomposition.share(k, j) > 0.0;
    }
    if (sharers == 0) continue;
    for (std::size_t k = 0; k < rates.size(); ++k) {
      if (decomposition.share(k, j) > 0.0) {
        expected[k] += class_occ[j] / static_cast<double>(sharers);
      }
    }
  }
  const auto q = fs.queue_lengths(rates, mu);
  for (std::size_t k = 0; k < rates.size(); ++k) {
    EXPECT_NEAR(q[k], expected[k], 1e-10) << "connection " << k;
  }
}

TEST(FairShare, Table1DecompositionStructure) {
  // The worked example of Table 1: four connections, increasing rates.
  const std::vector<double> r{1.0, 2.0, 3.0, 4.0};
  const auto d = FairShare::decompose(r);
  // Connection 1 (index 0): all rate in class A.
  EXPECT_DOUBLE_EQ(d.share(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.share(0, 1), 0.0);
  // Connection 4 (index 3): r1, r2-r1, r3-r2, r4-r3.
  EXPECT_DOUBLE_EQ(d.share(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.share(3, 1), 1.0);
  EXPECT_DOUBLE_EQ(d.share(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(d.share(3, 3), 1.0);
  // Class totals: N*r1, (N-1)(r2-r1), ...
  EXPECT_DOUBLE_EQ(d.class_totals[0], 4.0);
  EXPECT_DOUBLE_EQ(d.class_totals[1], 3.0);
  EXPECT_DOUBLE_EQ(d.class_totals[2], 2.0);
  EXPECT_DOUBLE_EQ(d.class_totals[3], 1.0);
}

TEST(FairShare, DecompositionRowsSumToRates) {
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto r = random_rates(rng, 1 + rng.uniform_index(8), 0.9, 1.0);
    const auto d = FairShare::decompose(r);
    for (std::size_t k = 0; k < r.size(); ++k) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < r.size(); ++j) row_sum += d.share(k, j);
      EXPECT_NEAR(row_sum, r[k], 1e-12);
    }
    const double class_sum = std::accumulate(d.class_totals.begin(),
                                             d.class_totals.end(), 0.0);
    const double rate_sum = std::accumulate(r.begin(), r.end(), 0.0);
    EXPECT_NEAR(class_sum, rate_sum, 1e-12);
  }
}

TEST(FairShare, ProtectsSmallSenderAtOverloadedGateway) {
  // Total load 1.3 > 1, but the small sender's cumulative load
  // sigma = 3 * 0.1 = 0.3 < 1: its queue stays finite (and small).
  FairShare fs;
  const auto q = fs.queue_lengths({0.1, 0.6, 0.6}, 1.0);
  EXPECT_TRUE(std::isfinite(q[0]));
  EXPECT_NEAR(q[0], g(0.3) / 3.0, 1e-12);
  EXPECT_TRUE(std::isinf(q[1]));
  EXPECT_TRUE(std::isinf(q[2]));
}

TEST(FairShare, FifoPunishesSmallSenderAtOverloadedGateway) {
  Fifo fifo;
  const auto q = fifo.queue_lengths({0.1, 0.6, 0.6}, 1.0);
  EXPECT_TRUE(std::isinf(q[0]));  // contrast with the FairShare test above
}

TEST(FairShare, TiedRatesGetIdenticalQueues) {
  FairShare fs;
  const auto q = fs.queue_lengths({0.2, 0.1, 0.2, 0.1}, 1.0);
  EXPECT_DOUBLE_EQ(q[0], q[2]);
  EXPECT_DOUBLE_EQ(q[1], q[3]);
  EXPECT_LT(q[1], q[0]);
}

TEST(FairShare, CumulativeLoadsDefinition) {
  const auto sigma = FairShare::cumulative_loads({0.3, 0.1, 0.2}, 1.0);
  EXPECT_NEAR(sigma[1], 0.3, 1e-12);        // 3 * 0.1
  EXPECT_NEAR(sigma[2], 0.1 + 2 * 0.2, 1e-12);
  EXPECT_NEAR(sigma[0], 0.1 + 0.2 + 0.3, 1e-12);
}

// The dense reference for FairShareDecomposition::class_for: the n x n
// share matrix of Table 1, each row turned into a cumulative class
// distribution, and a linear scan of that row for the first class whose
// cumulative share exceeds the draw. This is the form the packet
// simulator's Fair Share server used before it kept only the compact
// decomposition; class_for must reproduce its every pick bit for bit.
class DenseClassTable {
 public:
  explicit DenseClassTable(const std::vector<double>& rates) {
    const std::size_t n = rates.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rates[a] < rates[b];
                     });
    std::vector<std::vector<double>> share(n, std::vector<double>(n, 0.0));
    double prev = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double increment = rates[order[j]] - prev;
      prev = rates[order[j]];
      if (increment <= 0.0) continue;
      for (std::size_t p = j; p < n; ++p) share[order[p]][j] = increment;
    }
    cumulative_.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t k = 0; k < n; ++k) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        acc += share[k][j];
        cumulative_[k][j] = rates[k] > 0.0 ? acc / rates[k] : 1.0;
      }
      cumulative_[k].back() = 1.0;
    }
  }

  std::size_t pick(std::size_t k, double u) const {
    const auto& cum = cumulative_[k];
    std::size_t klass = 0;
    while (klass + 1 < cum.size() && u >= cum[klass]) ++klass;
    return klass;
  }

  /// Connection k's cumulative share through class j (the last class is
  /// pinned to 1).
  double cumulative(std::size_t k, std::size_t j) const {
    return cumulative_[k][j];
  }

 private:
  std::vector<std::vector<double>> cumulative_;
};

TEST(FairShare, ClassForMatchesDenseTableBitwise) {
  // Random rate vectors with exact ties and zero rates, n = 1 included.
  // Draws: random ones, every table entry exactly (a draw on a class
  // boundary), the double just below each, 0, and the largest double
  // below 1.
  Xoshiro256 rng(20240521);
  std::size_t undershoots = 0;
  std::size_t picks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(trial < 20 ? 2 : 40);
    std::vector<double> rates = random_rates(rng, n, 0.95, 1.0);
    for (double& r : rates) {
      const double roll = rng.uniform01();
      if (roll < 0.15) {
        r = 0.0;
      } else if (roll < 0.4) {
        r = rates[rng.uniform_index(n)];  // an exact tie (or a zero)
      }
    }
    const auto d = FairShare::decompose(rates);
    const DenseClassTable dense(rates);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t pos = d.position[k];
      if (rates[k] > 0.0 && d.prefix[pos] / rates[k] < 1.0) ++undershoots;
      std::vector<double> draws{0.0, std::nextafter(1.0, 0.0)};
      for (int i = 0; i < 8; ++i) draws.push_back(rng.uniform01());
      for (std::size_t j = 0; j < n; ++j) {
        const double c = dense.cumulative(k, j);
        if (c < 1.0) draws.push_back(c);
        if (c > 0.0) draws.push_back(std::nextafter(c, 0.0));
      }
      // A draw above the connection's last cumulative share: it lands in
      // class n-1 whenever that share rounds below 1.
      const double top = rates[k] > 0.0 ? d.prefix[pos] / rates[k] : 1.0;
      if (top < 1.0) draws.push_back(std::nextafter(top, 1.0));
      for (double u : draws) {
        ASSERT_EQ(d.class_for(k, u), dense.pick(k, u))
            << "trial " << trial << " n " << n << " connection " << k
            << " u " << u;
        ++picks;
      }
    }
  }
  EXPECT_GT(picks, 10000u);
  // The fp-undershoot branch must actually be exercised.
  EXPECT_GT(undershoots, 0u);
}

// ------------------------------------------------------------------------
// §2.2 axioms, property-tested across both disciplines and random loads.
// ------------------------------------------------------------------------

class DisciplineAxioms
    : public ::testing::TestWithParam<const ServiceDiscipline*> {};

const Fifo kFifo;
const FairShare kFairShare;
const ffc::queueing::ProcessorSharing kProcessorSharing;

INSTANTIATE_TEST_SUITE_P(AllDisciplines, DisciplineAxioms,
                         ::testing::Values<const ServiceDiscipline*>(
                             &kFifo, &kFairShare, &kProcessorSharing),
                         [](const auto& info) {
                           return std::string(info.param->name());
                         });

TEST_P(DisciplineAxioms, SymmetricInRates) {
  const ServiceDiscipline& d = *GetParam();
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    auto r = random_rates(rng, 5, 0.9, 1.0);
    const auto q = d.queue_lengths(r, 1.0);
    // Apply a rotation permutation to the rates; queues must rotate too.
    std::vector<double> rotated(r.size());
    std::rotate_copy(r.begin(), r.begin() + 2, r.end(), rotated.begin());
    const auto q_rot = d.queue_lengths(rotated, 1.0);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_NEAR(q_rot[i], q[(i + 2) % r.size()], 1e-12);
    }
  }
}

TEST_P(DisciplineAxioms, TimeScaleInvariant) {
  const ServiceDiscipline& d = *GetParam();
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const auto r = random_rates(rng, 4, 0.9, 1.0);
    const auto q = d.queue_lengths(r, 1.0);
    for (double c : {0.01, 0.5, 7.0, 1000.0}) {
      std::vector<double> scaled = r;
      for (double& x : scaled) x *= c;
      const auto q_scaled = d.queue_lengths(scaled, c);
      for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_NEAR(q_scaled[i], q[i], 1e-9 * (1.0 + q[i]));
      }
    }
  }
}

TEST_P(DisciplineAxioms, MonotoneInOwnRate) {
  const ServiceDiscipline& d = *GetParam();
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    auto r = random_rates(rng, 4, 0.85, 1.0);
    const auto q = d.queue_lengths(r, 1.0);
    const std::size_t i = rng.uniform_index(r.size());
    auto bumped = r;
    bumped[i] += 0.01;
    const auto q_bumped = d.queue_lengths(bumped, 1.0);
    EXPECT_GE(q_bumped[i] - q[i], -1e-12);
  }
}

TEST_P(DisciplineAxioms, QueueOrderMatchesRateOrder) {
  const ServiceDiscipline& d = *GetParam();
  Xoshiro256 rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const auto r = random_rates(rng, 5, 0.9, 1.0);
    const auto q = d.queue_lengths(r, 1.0);
    for (std::size_t i = 0; i < r.size(); ++i) {
      for (std::size_t j = 0; j < r.size(); ++j) {
        if (r[i] > r[j]) {
          EXPECT_GT(q[i], q[j] - 1e-12)
              << d.name() << ": Q must order like r";
        }
      }
    }
  }
}

TEST_P(DisciplineAxioms, FeasibleForNonstallingServer) {
  const ServiceDiscipline& d = *GetParam();
  Xoshiro256 rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(7);
    const double mu = rng.uniform(0.5, 3.0);
    const auto r = random_rates(rng, n, 0.95, mu);
    const auto q = d.queue_lengths(r, mu);
    const auto report = check_feasibility(r, q, mu, 1e-7);
    EXPECT_TRUE(report.feasible())
        << d.name() << " violates feasibility, margin "
        << report.worst_violation;
  }
}

TEST_P(DisciplineAxioms, ZeroRateConnectionHasZeroQueue) {
  const ServiceDiscipline& d = *GetParam();
  const auto q = d.queue_lengths({0.0, 0.5}, 1.0);
  EXPECT_DOUBLE_EQ(q[0], 0.0);
}

TEST_P(DisciplineAxioms, AggregateQueueConserved) {
  // Work conservation: the total queue is g(rho) regardless of discipline.
  const ServiceDiscipline& d = *GetParam();
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const auto r = random_rates(rng, 6, 0.9, 2.0);
    const auto q = d.queue_lengths(r, 2.0);
    double rho = 0.0, total = 0.0;
    for (double x : r) rho += x / 2.0;
    for (double x : q) total += x;
    EXPECT_NEAR(total, g(rho), 1e-9 * (1.0 + g(rho)));
  }
}

TEST(FairShare, TriangularityOfQueueDerivatives) {
  // dQ_i/dr_j == 0 whenever r_j > r_i (the paper's key structural fact).
  FairShare fs;
  const std::vector<double> r{0.1, 0.25, 0.4};
  const double h = 1e-7;
  for (std::size_t i = 0; i < r.size(); ++i) {
    for (std::size_t j = 0; j < r.size(); ++j) {
      if (r[j] <= r[i]) continue;
      auto up = r;
      up[j] += h;
      const double qi_before = fs.queue_lengths(r, 1.0)[i];
      const double qi_after = fs.queue_lengths(up, 1.0)[i];
      EXPECT_NEAR(qi_after, qi_before, 1e-12)
          << "Q_" << i << " must not depend on larger rate r_" << j;
    }
  }
}

TEST(FairShare, SojournTimesSatisfyLittlesLaw) {
  FairShare fs;
  const std::vector<double> r{0.1, 0.25, 0.4};
  const auto q = fs.queue_lengths(r, 1.0);
  const auto w = sojourns(fs, r, 1.0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(q[i], r[i] * w[i], 1e-9);
  }
  // Smaller senders see strictly smaller delays under Fair Share.
  EXPECT_LT(w[0], w[1]);
  EXPECT_LT(w[1], w[2]);
}

TEST(FairShare, ZeroRateSojournIsHighestPriorityLimit) {
  // A vanishing sender is the highest-priority class: it waits only for
  // its own service, W -> 1/mu.
  FairShare fs;
  const auto w = sojourns(fs, {0.0, 0.7}, 2.0);
  EXPECT_NEAR(w[0], 1.0 / 2.0, 1e-3);
}

TEST(Fifo, ZeroRateSojournSeesFullQueue) {
  // Contrast with Fair Share: a FIFO probe waits behind everyone,
  // W -> 1/(mu (1 - rho)).
  Fifo fifo;
  const auto w = sojourns(fifo, {0.0, 0.5}, 1.0);
  EXPECT_NEAR(w[0], 2.0, 1e-3);
}

TEST(ProcessorSharing, MeanOccupancyEqualsFifo) {
  // The classic insensitivity result: per-class PS occupancy in an M/M/1 is
  // rho_i / (1 - rho), identical to FIFO -- instantaneous equal sharing
  // does NOT change the mean picture.
  ffc::queueing::ProcessorSharing ps;
  Fifo fifo;
  Xoshiro256 rng(97);
  for (int trial = 0; trial < 20; ++trial) {
    const auto r = random_rates(rng, 5, 0.9, 1.3);
    const auto q_ps = ps.queue_lengths(r, 1.3);
    const auto q_fifo = fifo.queue_lengths(r, 1.3);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_DOUBLE_EQ(q_ps[i], q_fifo[i]);
    }
  }
}

TEST(ProcessorSharing, ViolatesTheorem5BoundLikeFifo) {
  // Q_i = r_i/(mu - sum r) > r_i/(mu - N r_i) when others are greedier:
  // PS cannot provide robust flow control either (it lacks the priority
  // protection Fair Share gives low-rate senders).
  ffc::queueing::ProcessorSharing ps;
  const std::vector<double> r{0.05, 0.6};
  const auto q = ps.queue_lengths(r, 1.0);
  const double bound = r[0] / (1.0 - 2 * r[0]);
  EXPECT_GT(q[0], bound);
}

TEST(FairShare, SmallerRateQueueUnaffectedByLargerEvenInOverload) {
  FairShare fs;
  const auto q_light = fs.queue_lengths({0.1, 0.3}, 1.0);
  const auto q_heavy = fs.queue_lengths({0.1, 5.0}, 1.0);
  EXPECT_DOUBLE_EQ(q_light[0], q_heavy[0]);
}

}  // namespace
