#include "search/space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffc::search {

double SearchAxis::span() const {
  if (!discrete) return hi - lo;
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  return *hi_it - *lo_it;
}

void SearchSpace::check_new_name(const std::string& name) const {
  if (name.empty()) {
    throw std::invalid_argument("search axis name must be non-empty");
  }
  for (const auto& axis : axes_) {
    if (axis.name == name) {
      throw std::invalid_argument("duplicate search axis name '" + name + "'");
    }
  }
}

SearchSpace& SearchSpace::continuous(std::string name, double lo, double hi) {
  check_new_name(name);
  if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo < hi)) {
    throw std::invalid_argument("continuous axis '" + name +
                                "' needs finite bounds with lo < hi");
  }
  axes_.push_back(SearchAxis{std::move(name), false, lo, hi, {}});
  return *this;
}

SearchSpace& SearchSpace::discrete(std::string name,
                                   std::vector<double> values) {
  check_new_name(name);
  if (values.empty()) {
    throw std::invalid_argument("discrete axis '" + name +
                                "' needs at least one value");
  }
  for (double v : values) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("discrete axis '" + name +
                                  "' has a non-finite value");
    }
  }
  axes_.push_back(SearchAxis{std::move(name), true, 0.0, 0.0,
                             std::move(values)});
  return *this;
}

const SearchAxis& SearchSpace::axis_at(std::size_t i) const {
  if (i >= axes_.size()) {
    throw std::out_of_range("search axis index out of range");
  }
  return axes_[i];
}

std::size_t SearchSpace::axis_index(std::string_view name) const {
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    if (axes_[i].name == name) return i;
  }
  throw std::out_of_range("no search axis named '" + std::string(name) + "'");
}

void SearchSpace::clamp(std::vector<double>& candidate) const {
  if (candidate.size() != axes_.size()) {
    throw std::invalid_argument("candidate size does not match axis count");
  }
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    double& x = candidate[a];
    if (std::isnan(x)) {
      throw std::invalid_argument("candidate coordinate for axis '" +
                                  axes_[a].name + "' is NaN");
    }
    const SearchAxis& axis = axes_[a];
    if (!axis.discrete) {
      x = std::clamp(x, axis.lo, axis.hi);
      continue;
    }
    // Nearest choice; ties break toward the lower index so snapping is a
    // pure function of (axis, x) with no platform dependence.
    double best = axis.values[0];
    double best_dist = std::fabs(x - best);
    for (std::size_t k = 1; k < axis.values.size(); ++k) {
      const double dist = std::fabs(x - axis.values[k]);
      if (dist < best_dist) {
        best = axis.values[k];
        best_dist = dist;
      }
    }
    x = best;
  }
}

bool SearchSpace::contains(const std::vector<double>& candidate) const {
  if (candidate.size() != axes_.size()) return false;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const SearchAxis& axis = axes_[a];
    const double x = candidate[a];
    if (std::isnan(x)) return false;
    if (!axis.discrete) {
      if (x < axis.lo || x > axis.hi) return false;
    } else if (std::find(axis.values.begin(), axis.values.end(), x) ==
               axis.values.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace ffc::search
