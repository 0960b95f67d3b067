#include "cpm/common/table.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>

#include "cpm/common/error.hpp"

namespace cpm {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table: need at least one column");
}

Table& Table::row() {
  require(rows_.empty() || rows_.back().size() == headers_.size(),
          "Table: previous row incomplete");
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add(const std::string& cell) {
  require(!rows_.empty(), "Table: add before row()");
  require(rows_.back().size() < headers_.size(), "Table: row overflow");
  rows_.back().push_back(cell);
  return *this;
}

Table& Table::add(const char* cell) { return add(std::string(cell)); }

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}

Table& Table::add(std::size_t value) { return add(std::to_string(value)); }

Table& Table::add(int value) { return add(std::to_string(value)); }

Table& Table::add(long value) { return add(std::to_string(value)); }

const std::string& Table::at(std::size_t r, std::size_t c) const {
  require(r < rows_.size() && c < rows_[r].size(), "Table::at: out of range");
  return rows_[r][c];
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

void Table::print(std::ostream& os) const {
  require(rows_.empty() || rows_.back().size() == headers_.size(),
          "Table: last row incomplete");
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << "  ";
      const bool right = looks_numeric(cells[c]);
      const std::size_t pad = widths[c] - cells[c].size();
      if (right) os << std::string(pad, ' ') << cells[c];
      else os << cells[c] << std::string(pad, ' ');
    }
    os << '\n';
  };

  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
}

std::string Table::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

std::string format_double(double value, int precision) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  oss << value;
  std::string s = oss.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

void print_banner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace cpm
