#include "exec/param_grid.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace ffc::exec {

double GridPoint::get(std::string_view name) const {
  return coords_[grid_->axis_index(name)];
}

ParamGrid& ParamGrid::axis(std::string name, std::vector<double> values) {
  if (!values.empty() &&
      size() > std::numeric_limits<std::size_t>::max() / values.size()) {
    throw std::length_error("ParamGrid::axis: axis '" + name +
                            "' makes the grid size overflow std::size_t");
  }
  axes_.push_back(GridAxis{std::move(name), std::move(values)});
  return *this;
}

const GridAxis& ParamGrid::axis_at(std::size_t i) const {
  if (i >= axes_.size()) {
    throw std::out_of_range("ParamGrid::axis_at: axis index out of range");
  }
  return axes_[i];
}

std::size_t ParamGrid::axis_index(std::string_view name) const {
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    if (axes_[i].name == name) return i;
  }
  throw std::out_of_range("ParamGrid: no axis named '" + std::string(name) +
                          "'");
}

std::size_t ParamGrid::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.values.size();
  return n;
}

GridPoint ParamGrid::point(std::size_t index) const {
  if (index >= size()) {
    throw std::out_of_range("ParamGrid::point: index out of range");
  }
  // Row-major decode, last axis fastest: peel the fastest axis off with
  // modulo, walking from the back.
  std::vector<double> coords(axes_.size());
  std::size_t rest = index;
  for (std::size_t i = axes_.size(); i-- > 0;) {
    const auto& values = axes_[i].values;
    coords[i] = values[rest % values.size()];
    rest /= values.size();
  }
  return GridPoint(this, index, std::move(coords));
}

std::vector<double> ParamGrid::linspace(double lo, double hi,
                                        std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  if (count == 0) return out;
  if (count == 1) {
    out.push_back(lo);
    return out;
  }
  for (std::size_t i = 0; i < count; ++i) {
    // i == count-1 lands exactly on hi.
    out.push_back(i + 1 == count
                      ? hi
                      : lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(count - 1));
  }
  return out;
}

std::vector<double> ParamGrid::arange(double lo, double hi, double step) {
  if (!(step > 0.0)) throw std::invalid_argument("arange: step must be > 0");
  if (hi < lo) throw std::invalid_argument("arange: hi must be >= lo");
  std::vector<double> out;
  const std::size_t count =
      static_cast<std::size_t>(std::floor((hi - lo) / step + 0.5)) + 1;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double v = lo + static_cast<double>(i) * step;
    if (v > hi + step * 0.5) break;
    out.push_back(v);
  }
  return out;
}

}  // namespace ffc::exec
