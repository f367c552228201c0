#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace hidisc::stats {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("table row width mismatch");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream out;
  const auto line = [&] {
    for (const auto w : width) out << "+" << std::string(w + 2, '-');
    out << "+\n";
  };
  const auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << "| " << cells[c]
          << std::string(width[c] - cells[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  line();
  emit(headers_);
  line();
  for (const auto& row : rows_) emit(row);
  line();
  return out.str();
}

}  // namespace hidisc::stats
