// Terminal scatter / line plots.
//
// The paper's §3.3 examples are dynamical-systems results (bifurcation to
// chaos); since no plotting stack is available offline, the experiments
// render bifurcation diagrams and trajectories as ASCII scatter plots.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ffc::report {

/// A character-grid scatter plot with labelled axes.
///
/// Points are added in data coordinates; render() maps them onto a
/// width x height character grid. Multiple series can be layered, each with
/// its own glyph; later series overwrite earlier ones on collisions.
class AsciiPlot {
 public:
  /// Creates a plot grid of the given size (interior plotting area,
  /// excluding axis decoration). Both dimensions must be >= 2.
  AsciiPlot(std::size_t width, std::size_t height);

  /// Adds one point to the series drawn with `glyph`. Points with a NaN or
  /// infinite coordinate cannot be placed on the grid; they are dropped but
  /// COUNTED, and print() renders a "(k non-finite points dropped)" footer
  /// so divergent trajectories are visible instead of silently vanishing.
  void add_point(double x, double y, char glyph = '*');

  /// Number of non-finite points dropped so far.
  std::size_t non_finite_dropped() const { return non_finite_dropped_; }

  /// Fixes the axis ranges; otherwise ranges are fitted to the data with a
  /// small margin. Call before render().
  void set_x_range(double lo, double hi);
  void set_y_range(double lo, double hi);

  /// Optional title and axis labels.
  void set_title(std::string title) { title_ = std::move(title); }
  void set_x_label(std::string label) { x_label_ = std::move(label); }
  void set_y_label(std::string label) { y_label_ = std::move(label); }

  /// Renders to `os`. A plot with no points renders an empty frame.
  void print(std::ostream& os) const;

 private:
  struct Point {
    double x;
    double y;
    char glyph;
  };

  std::size_t width_;
  std::size_t height_;
  std::size_t non_finite_dropped_ = 0;
  std::vector<Point> points_;
  bool have_x_range_ = false;
  bool have_y_range_ = false;
  double x_lo_ = 0, x_hi_ = 1, y_lo_ = 0, y_hi_ = 1;
  std::string title_;
  std::string x_label_;
  std::string y_label_;
};

}  // namespace ffc::report
