// Tests for the congestion signalling functions B(C).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "core/signal.hpp"

namespace ffc::core {

// gtest prints a TEST_P parameter into each test's listed name, and ctest
// registers that name. Print a signal by its formula, not its address, so
// the registered names are the same in every build.
void PrintTo(const std::shared_ptr<const SignalFunction>& b, std::ostream* os) {
  *os << b->name();
}

}  // namespace ffc::core

namespace {

using ffc::core::ExponentialSignal;
using ffc::core::PowerSignal;
using ffc::core::QuadraticSignal;
using ffc::core::RationalSignal;
using ffc::core::SignalFunction;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(RationalSignalTest, KnownValues) {
  RationalSignal b;
  EXPECT_DOUBLE_EQ(b(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b(1.0), 0.5);
  EXPECT_DOUBLE_EQ(b(kInf), 1.0);
}

TEST(RationalSignalTest, ComposedWithGGivesUtilization) {
  // b = B(g(rho)) = rho -- the identity the paper's examples exploit.
  RationalSignal b;
  for (double rho : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(b(rho / (1 - rho)), rho, 1e-12);
  }
}

TEST(QuadraticSignalTest, ComposedWithGGivesUtilizationSquared) {
  // The §3.3 chaos example needs B(g(rho)) = rho^2.
  QuadraticSignal b;
  for (double rho : {0.2, 0.6, 0.95}) {
    EXPECT_NEAR(b(rho / (1 - rho)), rho * rho, 1e-12);
  }
}

TEST(ExponentialSignalTest, SaturatesAtOne) {
  ExponentialSignal b(2.0);
  EXPECT_DOUBLE_EQ(b(0.0), 0.0);
  EXPECT_NEAR(b(1.0), 1.0 - std::exp(-2.0), 1e-12);
  EXPECT_DOUBLE_EQ(b(kInf), 1.0);
  EXPECT_THROW(ExponentialSignal(0.0), std::invalid_argument);
}

TEST(PowerSignalTest, GeneralizesRationalAndQuadratic) {
  PowerSignal p1(1.0), p2(2.0);
  RationalSignal rational;
  QuadraticSignal quadratic;
  for (double c : {0.1, 1.0, 5.0}) {
    EXPECT_NEAR(p1(c), rational(c), 1e-12);
    EXPECT_NEAR(p2(c), quadratic(c), 1e-12);
  }
  EXPECT_THROW(PowerSignal(-1.0), std::invalid_argument);
}

TEST(PowerSignalTest, ComposedWithGGivesUtilizationPower) {
  PowerSignal b(3.0);
  for (double rho : {0.3, 0.8}) {
    EXPECT_NEAR(b(rho / (1 - rho)), rho * rho * rho, 1e-12);
  }
}

TEST(BinarySignalTest, StepBehaviour) {
  // Models the original DECbit / Chiu-Jain binary feedback; deliberately
  // violates the strict-monotonicity axiom (documented), so it is NOT part
  // of the SignalAxioms suite below.
  ffc::core::BinarySignal b(2.0);
  EXPECT_DOUBLE_EQ(b(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b(1.999), 0.0);
  EXPECT_DOUBLE_EQ(b(2.0), 1.0);
  EXPECT_DOUBLE_EQ(b(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_DOUBLE_EQ(b.inverse(0.5), 2.0);
  EXPECT_DOUBLE_EQ(b.inverse(0.0), 0.0);
  EXPECT_TRUE(std::isinf(b.inverse(1.0)));
  EXPECT_THROW(ffc::core::BinarySignal(0.0), std::invalid_argument);
}

TEST(SmoothStepSignalTest, NormalizedSigmoidBoundaries) {
  ffc::core::SmoothStepSignal b(4.0, 1.0);
  EXPECT_DOUBLE_EQ(b(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b(kInf), 1.0);
  // At the midpoint the raw sigmoid is exactly 1/2; the normalization that
  // pins B(0) = 0 rescales it.
  const double floor = 1.0 / (1.0 + std::exp(4.0));
  EXPECT_NEAR(b(1.0), (0.5 - floor) / (1.0 - floor), 1e-12);
  EXPECT_THROW(ffc::core::SmoothStepSignal(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ffc::core::SmoothStepSignal(4.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ffc::core::SmoothStepSignal(kInf, 1.0), std::invalid_argument);
}

TEST(SmoothStepSignalTest, DerivativeMatchesFiniteDifference) {
  ffc::core::SmoothStepSignal b(3.0, 1.5);
  const double h = 1e-6;
  for (double c : {0.1, 1.0, 1.5, 2.5, 6.0}) {
    EXPECT_NEAR(b.derivative(c), (b(c + h) - b(c - h)) / (2 * h), 1e-6);
  }
  EXPECT_DOUBLE_EQ(b.derivative(kInf), 0.0);
}

TEST(SmoothStepSignalTest, SharpLimitApproachesBinarySignal) {
  // The AIMD oscillation-onset sweep (E18) rides this limit: as sharpness
  // grows the smooth step converges pointwise to the DECbit BinarySignal
  // away from the threshold.
  ffc::core::BinarySignal step(2.0);
  ffc::core::SmoothStepSignal sharp(500.0, 2.0);
  for (double c : {0.5, 1.5, 1.9, 2.1, 3.0, 10.0}) {
    EXPECT_NEAR(sharp(c), step(c), 1e-12) << "c = " << c;
  }
}

class SignalAxioms
    : public ::testing::TestWithParam<std::shared_ptr<const SignalFunction>> {
};

INSTANTIATE_TEST_SUITE_P(
    AllSignals, SignalAxioms,
    ::testing::Values(std::make_shared<RationalSignal>(),
                      std::make_shared<QuadraticSignal>(),
                      std::make_shared<ExponentialSignal>(0.7),
                      std::make_shared<PowerSignal>(3.5),
                      std::make_shared<ffc::core::SmoothStepSignal>(0.25,
                                                                    1.0)));

TEST_P(SignalAxioms, BoundaryConditions) {
  const SignalFunction& b = *GetParam();
  EXPECT_DOUBLE_EQ(b(0.0), 0.0);
  EXPECT_DOUBLE_EQ(b(kInf), 1.0);
}

TEST_P(SignalAxioms, StrictlyIncreasing) {
  const SignalFunction& b = *GetParam();
  double prev = -1.0;
  for (double c = 0.0; c < 50.0; c += 0.37) {
    const double value = b(c);
    EXPECT_GT(value, prev);
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
    prev = value;
  }
}

TEST_P(SignalAxioms, InverseRoundTrips) {
  const SignalFunction& b = *GetParam();
  for (double c : {0.0, 0.01, 0.5, 1.0, 3.0, 42.0}) {
    const double signal = b(c);
    if (signal > 1.0 - 1e-12) {
      // The inverse is ill-conditioned once the signal saturates double
      // precision; the contract is only that it stays huge.
      EXPECT_GT(b.inverse(signal), 0.5 * c);
      continue;
    }
    EXPECT_NEAR(b.inverse(signal), c, 1e-9 * (1.0 + c));
  }
  EXPECT_TRUE(std::isinf(b.inverse(1.0)));
}

TEST_P(SignalAxioms, RejectsBadArguments) {
  const SignalFunction& b = *GetParam();
  EXPECT_THROW(b(-0.1), std::invalid_argument);
  EXPECT_THROW(b.inverse(-0.1), std::invalid_argument);
  EXPECT_THROW(b.inverse(1.1), std::invalid_argument);
}

TEST_P(SignalAxioms, BatchMatchesScalarBitwise) {
  // The model's signal stage applies B through apply_into, one call per
  // gateway; the closed-form families override it with vectorizable loops.
  // Each entry must be bit for bit the scalar b(C), at zero, subnormal,
  // small, large, tied and infinite congestion, in and past a vector width.
  const SignalFunction& b = *GetParam();
  const std::vector<double> congestion{
      0.0,  std::numeric_limits<double>::denorm_min(),
      1e-300, 1e-8, 0.37, 0.5, 0.5, 0.5, 1.0, 3.0, 42.0, 1e8, 1e300,
      std::numeric_limits<double>::max(), kInf, 2.0, 2.0, kInf, 0.0};
  std::vector<double> batch(congestion.size(), -1.0);
  b.apply_into(congestion, batch);
  for (std::size_t k = 0; k < congestion.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[k]),
              std::bit_cast<std::uint64_t>(b(congestion[k])))
        << "C = " << congestion[k] << ": batch " << batch[k] << ", scalar "
        << b(congestion[k]);
  }
}

TEST_P(SignalAxioms, TimeScaleInvariantAsRequired) {
  // §2.5 restriction 3: signals depend only on the congestion measure, which
  // is itself a function of rate RATIOS; scaling C does change b, but the
  // signal attached to a scaled network is unchanged because g(rho) is.
  // Here we simply pin the contract: b is a pure function of C.
  const SignalFunction& b = *GetParam();
  EXPECT_DOUBLE_EQ(b(2.0), b(2.0));
}

}  // namespace
