// Tests for the text-table / CSV / ASCII-plot reporting layer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "report/ascii_plot.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

namespace {

using ffc::report::AsciiPlot;
using ffc::report::CsvWriter;
using ffc::report::TextTable;

// What print() writes for a table or a plot.
template <typename Renderable>
std::string rendered(const Renderable& r) {
  std::ostringstream oss;
  r.print(oss);
  return oss.str();
}

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = rendered(table);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Headers are left-aligned, data cells right-aligned.
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("|  beta |    22 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, PadsColumnsToWidestCell) {
  TextTable table({"h", "x"});
  table.add_row({"longcellvalue", "1"});
  const std::string out = rendered(table);
  // Header row must be as wide as the data row.
  std::istringstream iss(out);
  std::string rule, header, rule2, data;
  std::getline(iss, rule);
  std::getline(iss, header);
  std::getline(iss, rule2);
  std::getline(iss, data);
  EXPECT_EQ(header.size(), data.size());
}

TEST(TextTable, TitleAppearsAboveTable) {
  TextTable table({"a"});
  table.set_title("My Title");
  const std::string out = rendered(table);
  EXPECT_EQ(out.rfind("My Title", 0), 0u);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Fmt, FormatsFixedPrecision) {
  EXPECT_EQ(ffc::report::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(ffc::report::fmt(-1.0, 0), "-1");
}

TEST(Fmt, HandlesNonFinite) {
  EXPECT_EQ(ffc::report::fmt(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(ffc::report::fmt(-std::numeric_limits<double>::infinity()),
            "-inf");
  EXPECT_EQ(ffc::report::fmt(std::nan("")), "nan");
}

TEST(Fmt, Scientific) {
  EXPECT_EQ(ffc::report::fmt_sci(12345.0, 2), "1.23e+04");
}

TEST(Fmt, Bool) {
  EXPECT_EQ(ffc::report::fmt_bool(true), "yes");
  EXPECT_EQ(ffc::report::fmt_bool(false), "no");
}

TEST(CsvWriter, WritesPlainRow) {
  std::ostringstream oss;
  CsvWriter csv(oss);
  csv.write_row(std::vector<std::string>{"a", "b", "c"});
  EXPECT_EQ(oss.str(), "a,b,c\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, NumericRowsRoundTrip) {
  std::ostringstream oss;
  CsvWriter csv(oss);
  csv.write_row(std::vector<double>{0.1, 2.0});
  double a = 0, b = 0;
  char comma = 0;
  std::istringstream iss(oss.str());
  iss >> a >> comma >> b;
  EXPECT_EQ(a, 0.1);
  EXPECT_EQ(b, 2.0);
}

TEST(AsciiPlot, PlacesPointInGrid) {
  AsciiPlot plot(10, 5);
  plot.set_x_range(0, 1);
  plot.set_y_range(0, 1);
  plot.add_point(0.0, 0.0, '#');
  const std::string out = rendered(plot);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(AsciiPlot, SkipsNonFinitePoints) {
  AsciiPlot plot(10, 5);
  plot.add_point(std::nan(""), 1.0, '#');
  plot.add_point(1.0, std::numeric_limits<double>::infinity(), '#');
  EXPECT_EQ(rendered(plot).find('#'), std::string::npos);
}

TEST(AsciiPlot, CountsAndReportsDroppedNonFinitePoints) {
  AsciiPlot plot(10, 5);
  plot.add_point(std::nan(""), 1.0, '#');
  plot.add_point(1.0, std::numeric_limits<double>::infinity(), '#');
  plot.add_point(0.5, 0.5, '#');
  EXPECT_EQ(plot.non_finite_dropped(), 2u);
  // Dropped points are announced in the rendering, not silently swallowed.
  EXPECT_NE(rendered(plot).find("(2 non-finite points dropped)"),
            std::string::npos);
}

TEST(AsciiPlot, SingularDropUsesSingularFooter) {
  AsciiPlot plot(10, 5);
  plot.add_point(std::nan(""), 1.0);
  EXPECT_NE(rendered(plot).find("(1 non-finite point dropped)"),
            std::string::npos);
}

TEST(AsciiPlot, NoFooterWhenAllPointsArePlottable) {
  AsciiPlot plot(10, 5);
  plot.add_point(0.5, 0.5, '*');
  EXPECT_EQ(plot.non_finite_dropped(), 0u);
  EXPECT_EQ(rendered(plot).find("dropped"), std::string::npos);
}

TEST(AsciiPlot, AutoRangeFitsData) {
  AsciiPlot plot(20, 5);
  plot.add_point(-3.0, 10.0, '*');
  plot.add_point(7.0, 20.0, '*');
  const std::string out = rendered(plot);
  EXPECT_NE(out.find("-3"), std::string::npos);
  EXPECT_NE(out.find("7"), std::string::npos);
}

TEST(AsciiPlot, RejectsDegenerateRange) {
  AsciiPlot plot(5, 5);
  EXPECT_THROW(plot.set_x_range(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(plot.set_y_range(2.0, 1.0), std::invalid_argument);
}

TEST(AsciiPlot, TitleAndLabelsRendered) {
  AsciiPlot plot(8, 4);
  plot.set_title("T");
  plot.set_x_label("xs");
  plot.set_y_label("ys");
  plot.add_point(0.5, 0.5);
  const std::string out = rendered(plot);
  EXPECT_NE(out.find("T\n"), std::string::npos);
  EXPECT_NE(out.find("xs"), std::string::npos);
  EXPECT_NE(out.find("ys"), std::string::npos);
}

}  // namespace
