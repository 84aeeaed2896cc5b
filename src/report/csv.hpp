// Minimal CSV emission for experiment data series.
//
// Experiments print human-readable tables and can additionally dump
// machine-readable CSV (e.g. for external plotting). Quoting follows RFC 4180:
// fields containing commas, quotes, or newlines are quoted and inner quotes
// doubled.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ffc::report {

/// Streams rows of comma-separated values to an std::ostream.
class CsvWriter {
 public:
  /// Binds the writer to an output stream; the stream must outlive the
  /// writer. No header is written implicitly.
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row of string fields.
  void write_row(const std::vector<std::string>& fields);

  /// Writes one row of numeric fields (formatted with max_digits10 so the
  /// values round-trip).
  void write_row(const std::vector<double>& values);

  /// Number of rows written so far.
  std::size_t rows_written() const { return rows_; }

  /// Escapes a single field per RFC 4180.
  static std::string escape(const std::string& field);

 private:
  std::ostream& os_;
  std::size_t rows_ = 0;
};

}  // namespace ffc::report
