#include "spectral/operator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ffc::spectral {

ModelJacobianOperator::ModelJacobianOperator(
    const core::FlowControlModel& model, std::vector<double> base_rates,
    const core::JvpOptions& options)
    : model_(&model), options_(options) {
  options_.validate("ModelJacobianOperator");
  rebase(std::move(base_rates));
}

void ModelJacobianOperator::rebase(std::vector<double> base_rates) {
  base_ = std::move(base_rates);
  // The checked step validates size/finiteness/sign once for the whole
  // lifetime of this base; every probe below differs from base_ by a
  // finite perturbation and can take the unchecked fast path.
  f_base_ = model_->step(base_, ws_);
  double base_inf = 0.0;
  for (double r : base_) base_inf = std::max(base_inf, std::fabs(r));
  nominal_step_ = options_.relative_step *
                  std::max(base_inf, options_.step_floor /
                                         options_.relative_step);
  ++evals_;
}

void ModelJacobianOperator::apply(const linalg::Vector& x,
                                  linalg::Vector& y) const {
  const std::size_t n = base_.size();
  y.resize(n);
  double x_inf = 0.0;
  for (double e : x) x_inf = std::max(x_inf, std::fabs(e));
  if (x_inf == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
    return;
  }
  const double h0 = nominal_step_ / x_inf;

  // Largest step keeping each probe nonnegative on each side: the plus
  // probe base + h x needs h <= base_i / (-x_i) wherever x_i < 0, the minus
  // probe symmetrically.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double h_plus = kInf;
  double h_minus = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0) h_plus = std::min(h_plus, base_[i] / -x[i]);
    if (x[i] > 0.0) h_minus = std::min(h_minus, base_[i] / x[i]);
  }

  probe_.resize(n);
  f_plus_.resize(n);
  const double h_central = std::min({h0, h_plus, h_minus});
  if (h_central >= h0 * 1e-3) {
    // Central difference (the default): O(h^2) truncation error.
    const double h = h_central;
    for (std::size_t i = 0; i < n; ++i) {
      probe_[i] = std::max(0.0, base_[i] + h * x[i]);
    }
    f_plus_ = model_->step_unchecked(probe_, ws_);
    for (std::size_t i = 0; i < n; ++i) {
      probe_[i] = std::max(0.0, base_[i] - h * x[i]);
    }
    const std::vector<double>& f_minus = model_->step_unchecked(probe_, ws_);
    evals_ += 2;
    const double inv = 1.0 / (2.0 * h);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = (f_plus_[i] - f_minus[i]) * inv;
    }
    return;
  }

  // Boundary fallback: one-sided difference on whichever side admits a
  // usable step, reusing the cached F(base).
  const bool forward = std::min(h0, h_plus) >= std::min(h0, h_minus);
  const double h = std::max(forward ? std::min(h0, h_plus)
                                    : std::min(h0, h_minus),
                            h0 * 1e-9);
  const double sign = forward ? 1.0 : -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    probe_[i] = std::max(0.0, base_[i] + sign * h * x[i]);
  }
  const std::vector<double>& f_probe = model_->step_unchecked(probe_, ws_);
  ++evals_;
  const double inv = sign / h;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (f_probe[i] - f_base_[i]) * inv;
  }
}

}  // namespace ffc::spectral
