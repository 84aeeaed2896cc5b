#include "report/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ffc::report {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("TextTable: need at least one column");
  }
}

void TextTable::set_title(std::string title) { title_ = std::move(title); }

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable::add_row: wrong number of cells");
  }
  rows_.push_back(std::move(cells));
}

namespace {

enum class Align { Left, Right };

void put_cell(std::ostream& os, const std::string& text, std::size_t width,
              Align align) {
  const std::size_t pad = width > text.size() ? width - text.size() : 0;
  if (align == Align::Right) {
    os << std::string(pad, ' ') << text;
  } else {
    os << text << std::string(pad, ' ');
  }
}

}  // namespace

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += 3 * headers_.size() + 1;  // " | " separators plus edges

  const std::string rule(total, '-');

  if (!title_.empty()) {
    os << title_ << '\n';
  }
  os << rule << '\n';
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ';
    put_cell(os, headers_[c], widths[c], Align::Left);
    os << " |";
  }
  os << '\n' << rule << '\n';
  for (const auto& row : rows_) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ';
      put_cell(os, row[c], widths[c], Align::Right);
      os << " |";
    }
    os << '\n';
  }
  os << rule << '\n';
}

std::string fmt(double value, int precision) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

std::string fmt_sci(double value, int precision) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  std::ostringstream oss;
  oss << std::scientific << std::setprecision(precision) << value;
  return oss.str();
}

std::string fmt_bool(bool value) { return value ? "yes" : "no"; }

}  // namespace ffc::report
