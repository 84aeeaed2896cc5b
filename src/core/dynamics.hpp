// Iterated dynamics of r̂ = F(r): convergence, cycles, chaos (§3.3).
//
// The paper notes that past the stability threshold the iteration "can lead
// to oscillatory and chaotic behavior". These utilities iterate the model,
// classify the resulting orbit, and estimate the largest Lyapunov exponent
// (positive => chaos) by the standard two-trajectory renormalization method.
#pragma once

#include <cstddef>
#include <vector>

#include "core/model.hpp"

namespace ffc::core {

/// What the iterated map eventually does.
enum class OrbitKind {
  Converged,   ///< settled to a fixed point
  Periodic,    ///< settled to a cycle with period >= 2
  Irregular,   ///< neither within the iteration budget (chaotic or slow)
  Diverged,    ///< left every bounded region (|r| overflowed)
};

/// Options for trajectory runs.
struct TrajectoryOptions {
  std::size_t transient = 2000;     ///< iterations discarded before analysis
  std::size_t window = 512;         ///< iterations inspected for periodicity
  double tolerance = 1e-8;          ///< state-match tolerance (relative)
  std::size_t max_period = 64;      ///< largest cycle length searched
  bool record_trajectory = false;   ///< keep every iterate in the result
};

/// Result of running the dynamics.
struct TrajectoryResult {
  OrbitKind kind = OrbitKind::Irregular;
  std::size_t period = 0;                ///< 1 for fixed point, else cycle
  std::vector<double> final_state;
  std::vector<std::vector<double>> trajectory;  ///< only if recorded
  /// Post-transient per-connection min / max -- the envelope that a
  /// bifurcation diagram plots.
  std::vector<double> envelope_min;
  std::vector<double> envelope_max;
};

/// Iterates the model from `initial` and classifies the orbit.
TrajectoryResult run_dynamics(const FlowControlModel& model,
                              std::vector<double> initial,
                              const TrajectoryOptions& options = {});

}  // namespace ffc::core
