// Cartesian parameter spaces for sweeps.
//
// A ParamGrid is an ordered list of named axes; its points are the Cartesian
// product, enumerated in row-major order (the LAST axis varies fastest --
// exactly the order of writing one nested `for` loop per axis, outermost
// first). The enumeration order is part of the contract: SweepRunner
// collects results by grid index, so CSV output order is a pure function of
// the grid, never of thread scheduling.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ffc::exec {

class ParamGrid;

/// One point of a grid: its flat index plus one coordinate per axis.
class GridPoint {
 public:
  GridPoint(const ParamGrid* grid, std::size_t index,
            std::vector<double> coords)
      : grid_(grid), index_(index), coords_(std::move(coords)) {}

  /// Flat row-major index of this point in [0, grid.size()).
  std::size_t index() const { return index_; }

  /// Coordinates, one per axis, in axis order.
  const std::vector<double>& coords() const { return coords_; }

  /// Coordinate of axis `axis` (0-based). Throws std::out_of_range if
  /// `axis` is out of range.
  double at(std::size_t axis) const;

  /// Coordinate of the axis named `name`. Throws std::out_of_range if no
  /// axis has that name.
  double get(std::string_view name) const;

 private:
  const ParamGrid* grid_;
  std::size_t index_;
  std::vector<double> coords_;
};

/// A named axis: the values swept along one dimension.
struct GridAxis {
  std::string name;
  std::vector<double> values;
};

/// An ordered set of axes whose Cartesian product is the sweep domain.
///
/// A grid with no axes has exactly one (empty) point, matching the usual
/// convention for an empty product; an axis with no values makes the grid
/// empty.
class ParamGrid {
 public:
  ParamGrid() = default;

  /// Appends an axis. Returns *this for chaining:
  ///   ParamGrid g; g.axis("eta", ...).axis("n", ...);
  /// Throws std::length_error, leaving the grid unchanged, if the product
  /// of the axis sizes would overflow std::size_t.
  ParamGrid& axis(std::string name, std::vector<double> values);

  std::size_t num_axes() const { return axes_.size(); }
  const GridAxis& axis_at(std::size_t i) const;

  /// Index of the axis named `name`. Throws std::out_of_range if absent.
  std::size_t axis_index(std::string_view name) const;

  /// Total number of points (product of axis sizes).
  std::size_t size() const;

  /// The `index`-th point in row-major enumeration order (last axis
  /// fastest). Throws std::out_of_range if `index >= size()`.
  GridPoint point(std::size_t index) const;

  /// `count` evenly spaced values from `lo` to `hi` inclusive (count >= 2;
  /// count == 1 yields just {lo}). Endpoints are exact.
  static std::vector<double> linspace(double lo, double hi, std::size_t count);

  /// Values lo, lo+step, lo+2*step, ... up to and including `hi` (within
  /// half a step of floating slop). Each value is computed as lo + i*step --
  /// no error accumulation -- so grids built on different machines agree
  /// bit-for-bit. Requires step > 0 and hi >= lo.
  static std::vector<double> arange(double lo, double hi, double step);

 private:
  std::vector<GridAxis> axes_;
};

}  // namespace ffc::exec
