// One-dimensional map analysis (§3.3's instability and chaos examples).
//
// At a single gateway with N identical sources and aggregate feedback, a
// symmetric initial condition stays symmetric, so the N-dimensional update
// collapses to the scalar map
//
//   x̂ = max(0, x + f(x, B(g(N x / mu)), d(x))).
//
// With B(C) = C^2/(1+C^2) and f = eta (beta - b) this is the paper's
// recursion r̂_tot = r_tot + eta N (beta - (r_tot/mu)^2), which proceeds from
// stable to oscillatory to chaotic behavior as N grows (citing
// Collet-Eckmann for the general theory of iterated interval maps).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"

namespace ffc::core {

/// Orbit classification of a scalar map (mirrors dynamics.hpp).
enum class ScalarOrbitKind { Converged, Periodic, Irregular, Diverged };

/// Result of iterating a scalar map.
struct ScalarOrbit {
  ScalarOrbitKind kind = ScalarOrbitKind::Irregular;
  std::size_t period = 0;
  double final_value = 0.0;
  std::vector<double> samples;  ///< post-transient iterates (window)
  double min = 0.0, max = 0.0;  ///< envelope of the samples
};

/// A scalar discrete dynamical system x_{t+1} = map(x_t).
class OneDMap {
 public:
  using Fn = std::function<double(double)>;
  explicit OneDMap(Fn fn);

  double operator()(double x) const { return fn_(x); }

  /// The full orbit x0, x1, ..., x_n (n+1 values).
  std::vector<double> trajectory(double x0, std::size_t n) const;

  /// Classifies the orbit from x0 (transient discarded, then `window`
  /// samples analyzed; periods up to max_period detected).
  ScalarOrbit classify(double x0, std::size_t transient = 2000,
                       std::size_t window = 512, double tolerance = 1e-9,
                       std::size_t max_period = 64) const;

  /// Lyapunov exponent via the derivative chain rule,
  /// lambda = lim (1/T) sum log |f'(x_t)|, with f' computed by central
  /// differences (step h).
  double lyapunov(double x0, std::size_t transient = 2000,
                  std::size_t steps = 4000, double h = 1e-7) const;

 private:
  Fn fn_;
};

/// One row of a bifurcation diagram: the attractor (classify) and the
/// Lyapunov exponent of the map at one parameter value.
struct BifurcationPoint {
  double parameter = 0.0;
  ScalarOrbit orbit;
  double lyapunov = 0.0;
};

/// The symmetric-aggregate scalar map described above, for N sources at one
/// gateway of rate mu whose round-trip latency is `latency`. The delay fed
/// to the adjuster is latency + 1/(mu - N x) (FIFO M/M/1 sojourn;
/// +infinity at or beyond capacity -- capped internally for WindowLimd).
OneDMap make_symmetric_aggregate_map(
    std::size_t n_sources, double mu, double latency,
    std::shared_ptr<const SignalFunction> signal,
    std::shared_ptr<const RateAdjustment> adjuster);

}  // namespace ffc::core
