#include "core/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ffc::core {

namespace {

constexpr double kDivergenceBound = 1e12;

// Rows of the flat analysis window (row-major [t][i]).
bool rows_close(const double* a, const double* b, std::size_t n, double tol) {
  double scale = 1.0;
  for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, std::fabs(a[i]));
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fabs(a[i] - b[i]) > tol * scale) return false;
  }
  return true;
}

bool out_of_bounds(const std::vector<double>& r) {
  for (double x : r) {
    if (!std::isfinite(x) || std::fabs(x) > kDivergenceBound) return true;
  }
  return false;
}

}  // namespace

TrajectoryResult run_dynamics(const FlowControlModel& model,
                              std::vector<double> initial,
                              const TrajectoryOptions& options) {
  if (options.window == 0 || options.max_period == 0) {
    throw std::invalid_argument("run_dynamics: window/max_period must be > 0");
  }
  TrajectoryResult result;
  std::vector<double> r = std::move(initial);
  if (options.record_trajectory) result.trajectory.push_back(r);

  // The model validates the rate vector once, on the first step; every
  // iterate after that is the model's own output (finite and nonnegative by
  // construction, re-checked by the divergence guard), so the loop runs on
  // the unchecked allocation-free fast path.
  ModelWorkspace ws;
  bool validated = false;
  const auto advance = [&]() {
    const std::vector<double>& next =
        validated ? model.step_unchecked(r, ws) : model.step(r, ws);
    validated = true;
    r = next;  // same size after the first step: capacity is reused
  };

  for (std::size_t t = 0; t < options.transient; ++t) {
    advance();
    if (options.record_trajectory) result.trajectory.push_back(r);
    if (out_of_bounds(r)) {
      result.kind = OrbitKind::Diverged;
      result.final_state = std::move(r);
      return result;
    }
  }

  // Collect the analysis window into one flat row-major buffer: a single
  // allocation instead of `window` per-iterate vectors.
  const std::size_t n = r.size();
  std::vector<double> window;
  window.reserve(options.window * n);
  window.insert(window.end(), r.begin(), r.end());
  for (std::size_t t = 1; t < options.window; ++t) {
    advance();
    if (options.record_trajectory) result.trajectory.push_back(r);
    if (out_of_bounds(r)) {
      result.kind = OrbitKind::Diverged;
      result.final_state = std::move(r);
      return result;
    }
    window.insert(window.end(), r.begin(), r.end());
  }
  result.final_state = r;
  const std::size_t rows = window.size() / std::max<std::size_t>(n, 1);

  result.envelope_min.assign(n, std::numeric_limits<double>::infinity());
  result.envelope_max.assign(n, -std::numeric_limits<double>::infinity());
  for (std::size_t t = 0; t < rows; ++t) {
    const double* row = window.data() + t * n;
    for (std::size_t i = 0; i < n; ++i) {
      result.envelope_min[i] = std::min(result.envelope_min[i], row[i]);
      result.envelope_max[i] = std::max(result.envelope_max[i], row[i]);
    }
  }

  // Period detection: smallest p such that the window is p-periodic.
  const std::size_t max_p = std::min(options.max_period, rows / 2);
  for (std::size_t p = 1; p <= max_p; ++p) {
    bool periodic = true;
    for (std::size_t t = 0; t + p < rows; ++t) {
      if (!rows_close(window.data() + t * n, window.data() + (t + p) * n, n,
                      options.tolerance)) {
        periodic = false;
        break;
      }
    }
    if (periodic) {
      result.period = p;
      result.kind = p == 1 ? OrbitKind::Converged : OrbitKind::Periodic;
      return result;
    }
  }
  result.kind = OrbitKind::Irregular;
  return result;
}

}  // namespace ffc::core
