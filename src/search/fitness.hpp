// Fitness functionals: what a hunt maximizes, and the rank compositions
// that turn boundary hunts into plain maximization.
//
// A fitness functional scores one candidate through the existing engines
// (a spectral solve, a closed-loop packet simulation, an orbit
// classification...). The optimizers only ever MAXIMIZE, so constrained
// hunts are expressed as rank compositions: e.g. "find the earliest chaos
// onset" becomes "every unstable candidate outranks every stable one, and
// among unstable candidates a smaller gain outranks a larger one". The
// catalog below pins those compositions as small pure functions so every
// consumer (E19's chaos atlas, examples/chaos_hunt, the tests) ranks
// identically; docs/SEARCH.md documents each functional and the checklist
// for adding a new one.
//
// The oracle contract: a FitnessFn receives the candidate (one coordinate
// per SearchSpace axis), a per-candidate seed (derived by the optimizer,
// docs/SEARCH.md "Seed derivation"), and a private MetricRegistry. It
// returns the fitness, where NaN means "this candidate could not be
// scored" -- NaN evaluations are logged and counted but can NEVER become
// an elite or the incumbent best (pinned by tests/test_search.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace ffc::obs {
class MetricRegistry;
}

namespace ffc::search {

/// The oracle the optimizers drive. Must be safe to call concurrently for
/// distinct (candidate, seed, registry) triples -- evaluations fan out
/// over exec::ThreadPool.
using FitnessFn = std::function<double(
    const std::vector<double>& candidate, std::uint64_t seed,
    obs::MetricRegistry& metrics)>;

/// The built-in functional catalog (docs/SEARCH.md). Names are the
/// `fitness =` tokens of a hunt spec (hunt_spec.hpp).
enum class FitnessKind {
  SpectralRadius,      ///< "spectral_radius": maximize rho(DF) at the fixed point
  SlowestConvergence,  ///< "slowest_convergence": maximize rho subject to rho < 1
  EarliestOnset,       ///< "earliest_onset": minimize an axis subject to instability
  MaxUnfairness,       ///< "max_unfairness": maximize closed-loop timid shortfall
};

/// Catalog name of `kind` ("spectral_radius", ...).
std::string_view fitness_kind_name(FitnessKind kind);

/// Parses a catalog name; throws std::invalid_argument on an unknown one.
FitnessKind fitness_kind_from_name(std::string_view name);

/// Rank composition for "earliest onset": minimize `axis_value` subject to
/// `unstable`. Unstable candidates score kOnsetBase - axis_value (so the
/// smallest onset coordinate wins); stable candidates score their
/// `proximity` (e.g. the spectral radius), capped strictly below every
/// unstable score, so the CEM distribution is still pulled toward the
/// boundary while no stable candidate can outrank an unstable one.
/// Requires axis_value and proximity finite and |axis_value| < kOnsetBase/2.
inline constexpr double kOnsetBase = 1e6;
double onset_fitness(bool unstable, double axis_value, double proximity);

/// Rank composition for "slowest convergence": maximize the spectral
/// radius subject to stability. Stable radii score themselves (approaching
/// 1 from below is slower convergence); unstable radii score -radius,
/// strictly below every stable score. NaN passes through as NaN.
double slowest_convergence_fitness(double spectral_radius);

}  // namespace ffc::search
