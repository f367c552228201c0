// Plain-text table rendering: the paper's tables and figures
// (lab/figures.hpp), hilab's cell table and bench_table1_params print
// their rows through this helper, so they share one format.
#pragma once

#include <string>
#include <vector>

namespace hidisc::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with `precision` digits after the point.
  [[nodiscard]] static std::string num(double v, int precision = 3);
  // "+12.3%" style signed percentage.
  [[nodiscard]] static std::string pct(double fraction, int precision = 1);

  [[nodiscard]] std::string to_string() const;  // aligned ASCII table

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hidisc::stats
