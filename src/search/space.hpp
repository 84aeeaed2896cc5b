// Adversarial search domains: the parameter space a hunt optimizes over.
//
// A SearchSpace is an ordered list of named axes, each either continuous
// (a closed interval [lo, hi]) or discrete (an ordered, finite choice set
// of double values -- discipline ids, staleness epochs, topology-family
// tags). A candidate is one double per axis, in axis order. The space
// knows how to keep candidates inside the domain: continuous coordinates
// clamp to their interval, discrete coordinates snap to the nearest
// choice (ties break toward the LOWER index, so snapping is deterministic
// and platform-independent).
//
// The space is pure configuration -- it carries no RNG state and no
// fitness knowledge. The optimizers in cem.hpp / tree.hpp sample from it;
// the fitness functionals in fitness.hpp score the samples through the
// existing engines (docs/SEARCH.md is the guide).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ffc::search {

/// One axis of a search domain.
struct SearchAxis {
  std::string name;
  bool discrete = false;
  double lo = 0.0;             ///< continuous only: lower bound
  double hi = 0.0;             ///< continuous only: upper bound (> lo)
  std::vector<double> values;  ///< discrete only: ordered choice set

  /// Width of the axis domain: hi - lo for continuous axes, the spread
  /// max(values) - min(values) for discrete ones. Used by the CEM loop to
  /// scale initial sigma and the sigma floor.
  double span() const;
};

/// An ordered set of axes whose product is the hunt domain.
///
/// Axis order is part of the contract: candidates are coordinate vectors
/// in axis order, the CEM sampler draws axes in order (so the RNG stream
/// layout is a pure function of the space), and the tree optimizer
/// branches over the discrete axes in declaration order.
class SearchSpace {
 public:
  SearchSpace() = default;

  /// Appends a continuous axis over [lo, hi]. Returns *this for chaining.
  /// Throws std::invalid_argument on a non-finite or empty interval, or a
  /// duplicate/empty name.
  SearchSpace& continuous(std::string name, double lo, double hi);

  /// Appends a discrete axis over the given ordered choice set. Throws
  /// std::invalid_argument on an empty or non-finite value list, or a
  /// duplicate/empty name.
  SearchSpace& discrete(std::string name, std::vector<double> values);

  std::size_t num_axes() const { return axes_.size(); }
  const SearchAxis& axis_at(std::size_t i) const;

  /// Index of the axis named `name`. Throws std::out_of_range if absent.
  std::size_t axis_index(std::string_view name) const;

  /// Projects `candidate` into the domain in place: continuous coordinates
  /// clamp to [lo, hi], discrete coordinates snap to the nearest choice
  /// (ties -> lower index). Throws std::invalid_argument if the size does
  /// not match num_axes() or any coordinate is NaN.
  void clamp(std::vector<double>& candidate) const;

  /// True iff `candidate` has one in-domain coordinate per axis (discrete
  /// coordinates must equal a choice exactly).
  bool contains(const std::vector<double>& candidate) const;

 private:
  void check_new_name(const std::string& name) const;

  std::vector<SearchAxis> axes_;
};

}  // namespace ffc::search
