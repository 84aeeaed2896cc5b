#include "core/onedmap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "queueing/feasibility.hpp"

namespace ffc::core {

namespace {
constexpr double kDivergenceBound = 1e12;
}

OneDMap::OneDMap(Fn fn) : fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("OneDMap: empty callable");
}

std::vector<double> OneDMap::trajectory(double x0, std::size_t n) const {
  std::vector<double> out;
  out.reserve(n + 1);
  out.push_back(x0);
  double x = x0;
  for (std::size_t t = 0; t < n; ++t) {
    x = fn_(x);
    out.push_back(x);
  }
  return out;
}

ScalarOrbit OneDMap::classify(double x0, std::size_t transient,
                              std::size_t window, double tolerance,
                              std::size_t max_period) const {
  if (window == 0 || max_period == 0) {
    throw std::invalid_argument("OneDMap::classify: bad window/max_period");
  }
  ScalarOrbit orbit;
  double x = x0;
  for (std::size_t t = 0; t < transient; ++t) {
    x = fn_(x);
    if (!std::isfinite(x) || std::fabs(x) > kDivergenceBound) {
      orbit.kind = ScalarOrbitKind::Diverged;
      orbit.final_value = x;
      return orbit;
    }
  }
  orbit.samples.reserve(window);
  orbit.samples.push_back(x);
  for (std::size_t t = 1; t < window; ++t) {
    x = fn_(x);
    if (!std::isfinite(x) || std::fabs(x) > kDivergenceBound) {
      orbit.kind = ScalarOrbitKind::Diverged;
      orbit.final_value = x;
      return orbit;
    }
    orbit.samples.push_back(x);
  }
  orbit.final_value = x;
  orbit.min = *std::min_element(orbit.samples.begin(), orbit.samples.end());
  orbit.max = *std::max_element(orbit.samples.begin(), orbit.samples.end());

  const double scale = std::max(1.0, std::fabs(orbit.max));
  const std::size_t max_p = std::min(max_period, window / 2);
  for (std::size_t p = 1; p <= max_p; ++p) {
    bool periodic = true;
    for (std::size_t t = 0; t + p < orbit.samples.size(); ++t) {
      if (std::fabs(orbit.samples[t] - orbit.samples[t + p]) >
          tolerance * scale) {
        periodic = false;
        break;
      }
    }
    if (periodic) {
      orbit.period = p;
      orbit.kind =
          p == 1 ? ScalarOrbitKind::Converged : ScalarOrbitKind::Periodic;
      return orbit;
    }
  }
  orbit.kind = ScalarOrbitKind::Irregular;
  return orbit;
}

double OneDMap::lyapunov(double x0, std::size_t transient, std::size_t steps,
                         double h) const {
  if (steps == 0) throw std::invalid_argument("lyapunov: steps must be > 0");
  if (!(h > 0.0)) throw std::invalid_argument("lyapunov: h must be > 0");
  double x = x0;
  for (std::size_t t = 0; t < transient; ++t) x = fn_(x);
  double log_sum = 0.0;
  for (std::size_t t = 0; t < steps; ++t) {
    const double left = fn_(std::max(0.0, x - h));
    const double right = fn_(x + h);
    const double width = (x + h) - std::max(0.0, x - h);
    const double derivative = (right - left) / width;
    log_sum += std::log(std::max(std::fabs(derivative), 1e-300));
    x = fn_(x);
    if (!std::isfinite(x)) return std::numeric_limits<double>::infinity();
  }
  return log_sum / static_cast<double>(steps);
}

OneDMap make_symmetric_aggregate_map(
    std::size_t n_sources, double mu, double latency,
    std::shared_ptr<const SignalFunction> signal,
    std::shared_ptr<const RateAdjustment> adjuster) {
  if (n_sources == 0) {
    throw std::invalid_argument("symmetric map: need >= 1 source");
  }
  if (!(mu > 0.0)) throw std::invalid_argument("symmetric map: mu > 0");
  if (!(latency >= 0.0)) {
    throw std::invalid_argument("symmetric map: latency >= 0");
  }
  if (!signal || !adjuster) {
    throw std::invalid_argument("symmetric map: null component");
  }
  const double n = static_cast<double>(n_sources);
  return OneDMap([=](double x) {
    const double rate = std::max(0.0, x);
    const double rho = n * rate / mu;
    const double congestion = queueing::g(std::min(rho, 1.0));
    const double b = (*signal)(congestion);
    const double delay =
        rho < 1.0 ? latency + 1.0 / (mu * (1.0 - rho))
                  : std::numeric_limits<double>::infinity();
    return std::max(0.0, rate + (*adjuster)(rate, b, delay));
  });
}

}  // namespace ffc::core
