// Congestion signalling functions B(C) (§2.3.1).
//
// A gateway maps a (aggregate or individual) congestion measure C >= 0 to a
// signal b in [0, 1]. The paper requires B to be nowhere constant
// (dB/dC > 0), with B(0) = 0 and B(inf) = 1. The inverse B^{-1} is needed to
// compute steady states: for a TSI rate adjuster with steady signal b_ss,
// the steady-state congestion is C_ss = B^{-1}(b_ss) and the bottleneck
// utilization is rho_ss = C_ss / (1 + C_ss).
#pragma once

#include <memory>
#include <span>
#include <string_view>

namespace ffc::core {

/// Interface for congestion signalling functions.
class SignalFunction {
 public:
  virtual ~SignalFunction() = default;

  /// b = B(C). Requires C >= 0 (C may be +infinity; the result is then 1).
  virtual double operator()(double congestion) const = 0;

  /// C = B^{-1}(b) for b in [0, 1). Throws std::invalid_argument outside
  /// [0, 1); returns +infinity for b == 1.
  virtual double inverse(double signal) const = 0;

  /// B'(C), the slope of the signalling function. Requires C >= 0; returns 0
  /// at C = +infinity (every admissible B saturates at 1). Only meaningful
  /// when differentiable() -- the analytic Jacobian operator
  /// (spectral/analytic.hpp) consumes this for the closed-form DF(r) chain
  /// rule (docs/THEORY.md section 8).
  virtual double derivative(double congestion) const = 0;

  /// True iff derivative() returns the exact slope everywhere on [0, inf).
  /// BinarySignal is the one family that is not (it is a step function);
  /// callers needing DF must fall back to finite differences for it.
  virtual bool differentiable() const { return true; }

  /// Batch evaluation out[i] = B(in[i]) over already-validated congestion
  /// values (the model's observe path guarantees >= 0). The default loops
  /// operator(); the closed-form families override it with branch-light
  /// contiguous loops the autovectorizer handles, removing one virtual call
  /// per incidence entry from the observe hot path (docs/SCALING.md).
  virtual void apply_into(std::span<const double> congestion,
                          std::span<double> out) const {
    for (std::size_t i = 0; i < congestion.size(); ++i) {
      out[i] = (*this)(congestion[i]);
    }
  }

  virtual std::string_view name() const = 0;
};

/// B(C) = C / (1 + C). The paper's running example; with C = g(rho) this
/// makes the aggregate signal equal to the utilization: b = rho.
class RationalSignal final : public SignalFunction {
 public:
  double operator()(double congestion) const override;
  double inverse(double signal) const override;
  double derivative(double congestion) const override;  ///< 1/(1+C)^2
  void apply_into(std::span<const double> congestion,
                  std::span<double> out) const override;
  std::string_view name() const override { return "C/(1+C)"; }
};

/// B(C) = (C / (1 + C))^2. With C = g(rho) the aggregate signal is rho^2 --
/// the signalling function of the paper's §3.3 chaos example (whose reduced
/// recursion is r̂_tot = r_tot + eta N (beta - rho_tot^2)).
class QuadraticSignal final : public SignalFunction {
 public:
  double operator()(double congestion) const override;
  double inverse(double signal) const override;
  double derivative(double congestion) const override;  ///< 2C/(1+C)^3
  void apply_into(std::span<const double> congestion,
                  std::span<double> out) const override;
  std::string_view name() const override { return "(C/(1+C))^2"; }
};

/// B(C) = 1 - exp(-k C), k > 0. A smooth alternative family used to show
/// results do not hinge on the rational form.
class ExponentialSignal final : public SignalFunction {
 public:
  explicit ExponentialSignal(double k);
  double operator()(double congestion) const override;
  double inverse(double signal) const override;
  double derivative(double congestion) const override;  ///< k exp(-kC)
  void apply_into(std::span<const double> congestion,
                  std::span<double> out) const override;
  std::string_view name() const override { return "1-exp(-kC)"; }
  double k() const { return k_; }

 private:
  double k_;
};

/// B(C) = (C / (1 + C))^p, p > 0 -- the family containing Rational (p=1)
/// and Quadratic (p=2). Composed with g it signals b = rho^p, so p tunes how
/// sharply the signal reacts near saturation.
class PowerSignal final : public SignalFunction {
 public:
  explicit PowerSignal(double p);
  double operator()(double congestion) const override;
  double inverse(double signal) const override;
  double derivative(double congestion) const override;  ///< pC^{p-1}/(1+C)^{p+1}
  std::string_view name() const override { return "(C/(1+C))^p"; }
  double p() const { return p_; }

 private:
  double p_;
};

/// B(C) = (sigma(k (C - C*)) - sigma(-k C*)) / (1 - sigma(-k C*)) with
/// sigma the logistic function: a smooth, strictly increasing step centred
/// at C* whose sharpness k interpolates between a gentle admissible signal
/// and BinarySignal's hard threshold (k -> infinity). Satisfies the paper's
/// axioms for every finite k -- B(0) = 0, B(inf) = 1, B' > 0 -- which makes
/// it the tool for studying the AIMD oscillation onset as feedback sharpens
/// (arXiv:0812.1321; E18, docs/PROTOCOLS.md).
class SmoothStepSignal final : public SignalFunction {
 public:
  /// Requires sharpness > 0 and midpoint > 0, both finite.
  SmoothStepSignal(double sharpness, double midpoint);
  double operator()(double congestion) const override;
  double inverse(double signal) const override;
  double derivative(double congestion) const override;
  std::string_view name() const override { return "sigma(k(C-C*))"; }
  double sharpness() const { return sharpness_; }
  double midpoint() const { return midpoint_; }

 private:
  double sharpness_;
  double midpoint_;
  double floor_;  ///< sigma(-k C*), subtracted so B(0) = 0 exactly
};

/// B(C) = 0 for C < threshold, 1 for C >= threshold: the BINARY feedback of
/// the original DECbit scheme and of Chiu-Jain's model [Chi89, Jai88,
/// Ram88].
///
/// Deliberately violates this paper's signalling axioms (it is not strictly
/// increasing), which is the point: under binary feedback the system is
/// "either increasing or decreasing at every point, and thus ... never in a
/// steady state" (§1). Used by E13 to reproduce the §4 analysis of
/// linear-increase multiplicative-decrease under binary feedback.
/// inverse() returns the threshold for any signal in (0, 1) -- the only
/// congestion value compatible with a non-extreme time-average signal.
class BinarySignal final : public SignalFunction {
 public:
  /// Requires threshold > 0.
  explicit BinarySignal(double threshold);
  double operator()(double congestion) const override;
  double inverse(double signal) const override;
  /// Zero almost everywhere -- but the step at the threshold makes the
  /// function non-differentiable, so differentiable() is false and the
  /// analytic Jacobian path declines this signal.
  double derivative(double congestion) const override;
  bool differentiable() const override { return false; }
  std::string_view name() const override { return "1{C>=C*}"; }
  double threshold() const { return threshold_; }

 private:
  double threshold_;
};

}  // namespace ffc::core
