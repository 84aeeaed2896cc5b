#include "report/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ffc::report {

AsciiPlot::AsciiPlot(std::size_t width, std::size_t height)
    : width_(width), height_(height) {
  if (width < 2 || height < 2) {
    throw std::invalid_argument("AsciiPlot: grid must be at least 2x2");
  }
}

void AsciiPlot::add_point(double x, double y, char glyph) {
  if (!std::isfinite(x) || !std::isfinite(y)) {
    ++non_finite_dropped_;  // unplottable, but reported in the footer
    return;
  }
  points_.push_back({x, y, glyph});
}

void AsciiPlot::set_x_range(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("AsciiPlot: empty x range");
  x_lo_ = lo;
  x_hi_ = hi;
  have_x_range_ = true;
}

void AsciiPlot::set_y_range(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("AsciiPlot: empty y range");
  y_lo_ = lo;
  y_hi_ = hi;
  have_y_range_ = true;
}

namespace {

std::string label(double v) {
  std::ostringstream oss;
  oss << std::setprecision(4) << std::defaultfloat << v;
  return oss.str();
}

}  // namespace

void AsciiPlot::print(std::ostream& os) const {
  double x_lo = x_lo_, x_hi = x_hi_, y_lo = y_lo_, y_hi = y_hi_;
  if (!points_.empty()) {
    if (!have_x_range_) {
      x_lo = x_hi = points_.front().x;
      for (const auto& p : points_) {
        x_lo = std::min(x_lo, p.x);
        x_hi = std::max(x_hi, p.x);
      }
      if (x_lo == x_hi) {
        x_lo -= 0.5;
        x_hi += 0.5;
      }
    }
    if (!have_y_range_) {
      y_lo = y_hi = points_.front().y;
      for (const auto& p : points_) {
        y_lo = std::min(y_lo, p.y);
        y_hi = std::max(y_hi, p.y);
      }
      if (y_lo == y_hi) {
        y_lo -= 0.5;
        y_hi += 0.5;
      }
    }
  }

  std::vector<std::string> grid(height_, std::string(width_, ' '));
  for (const auto& p : points_) {
    if (p.x < x_lo || p.x > x_hi || p.y < y_lo || p.y > y_hi) continue;
    const double fx = (p.x - x_lo) / (x_hi - x_lo);
    const double fy = (p.y - y_lo) / (y_hi - y_lo);
    auto col = static_cast<std::size_t>(fx * static_cast<double>(width_ - 1) + 0.5);
    auto row = static_cast<std::size_t>(fy * static_cast<double>(height_ - 1) + 0.5);
    grid[height_ - 1 - row][col] = p.glyph;  // row 0 is the top line
  }

  if (!title_.empty()) os << title_ << '\n';
  if (!y_label_.empty()) os << y_label_ << '\n';

  const std::string y_hi_s = label(y_hi);
  const std::string y_lo_s = label(y_lo);
  const std::size_t margin = std::max(y_hi_s.size(), y_lo_s.size());

  for (std::size_t row = 0; row < height_; ++row) {
    std::string tag;
    if (row == 0) tag = y_hi_s;
    else if (row == height_ - 1) tag = y_lo_s;
    os << std::string(margin - tag.size(), ' ') << tag << " |" << grid[row]
       << '\n';
  }
  os << std::string(margin, ' ') << " +" << std::string(width_, '-') << '\n';
  const std::string x_lo_s = label(x_lo);
  const std::string x_hi_s = label(x_hi);
  os << std::string(margin + 2, ' ') << x_lo_s;
  if (width_ > x_lo_s.size() + x_hi_s.size()) {
    os << std::string(width_ - x_lo_s.size() - x_hi_s.size(), ' ') << x_hi_s;
  } else {
    os << ' ' << x_hi_s;
  }
  os << '\n';
  if (!x_label_.empty()) {
    os << std::string(margin + 2, ' ') << x_label_ << '\n';
  }
  if (non_finite_dropped_ > 0) {
    os << std::string(margin + 2, ' ') << '(' << non_finite_dropped_
       << " non-finite point" << (non_finite_dropped_ == 1 ? "" : "s")
       << " dropped)\n";
  }
}

}  // namespace ffc::report
