// Plain-text table rendering for experiment harnesses.
//
// Every experiment in bench/ regenerates one of the paper's tables or
// worked examples; TextTable produces aligned, boxed output comparable to the
// rows the paper reports.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ffc::report {

/// Column alignment within a rendered table.
enum class Align { Left, Right };

/// A simple text table: a header row plus any number of data rows.
///
/// Cells are strings; numeric helpers format doubles with a fixed precision.
/// Rendering pads every column to its widest cell and draws ASCII rules.
class TextTable {
 public:
  /// Creates a table with the given column headers. Alignment defaults to
  /// Right for every column (numeric tables dominate our usage).
  explicit TextTable(std::vector<std::string> headers);

  /// Sets the alignment of column `col` (0-based).
  void set_align(std::size_t col, Align align);

  /// Sets an optional title printed above the table.
  void set_title(std::string title);

  /// Appends a row of pre-formatted cells. The row must have exactly as many
  /// cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows added so far.
  std::size_t row_count() const { return rows_.size(); }

  /// Renders the table to `os` (with trailing newline).
  void print(std::ostream& os) const;

  /// Renders the table to a string.
  std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the decimal point.
/// Infinities render as "inf"/"-inf"; NaN renders as "nan".
std::string fmt(double value, int precision = 4);

/// Formats a double in scientific notation with `precision` significant
/// fractional digits.
std::string fmt_sci(double value, int precision = 3);

/// Formats a boolean as "yes"/"no".
std::string fmt_bool(bool value);

}  // namespace ffc::report
