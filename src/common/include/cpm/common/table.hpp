// Result-table formatting for benchmarks and examples.
//
// Every bench binary reproduces one paper table/figure by printing rows; a
// shared formatter keeps that output uniform and lets EXPERIMENTS.md quote
// it verbatim. Tables render as aligned ASCII.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace cpm {

/// Column-aligned table builder. Cells are strings; numeric convenience
/// overloads format with a fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(const std::string& cell);
  Table& add(const char* cell);
  Table& add(double value, int precision = 4);
  Table& add(std::size_t value);
  Table& add(int value);
  Table& add(long value);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const { return headers_; }
  /// Cell access for tests; throws on out-of-range.
  [[nodiscard]] const std::string& at(std::size_t row, std::size_t col) const;

  /// Renders with a header rule and right-aligned numeric-looking cells.
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with `precision` significant digits after the point,
/// trimming trailing zeros ("1.25", "0.5", "3").
std::string format_double(double value, int precision = 4);

/// Prints a "== title ==" banner used by bench binaries between tables.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace cpm
