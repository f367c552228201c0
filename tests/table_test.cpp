// Plain-text table tests (the paper's figures and hilab's cell table
// render through stats::Table).
#include <gtest/gtest.h>

#include "stats/table.hpp"

namespace hidisc::stats {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"A", "Benchmark"});
  t.add_row({"x", "short"});
  t.add_row({"longer", "y"});
  const auto s = t.to_string();
  // Every line has equal length in an aligned table.
  std::size_t len = s.find('\n');
  for (std::size_t pos = 0; pos < s.size();) {
    const auto end = s.find('\n', pos);
    EXPECT_EQ(end - pos, len) << "ragged line at offset " << pos;
    pos = end + 1;
  }
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
  EXPECT_EQ(Table::pct(0.119), "+11.9%");
  EXPECT_EQ(Table::pct(-0.013), "-1.3%");
}

TEST(Table, ContentsAppearInOutput) {
  Table t({"name", "value"});
  t.add_row({"cycles", "12345"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("cycles"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
}

}  // namespace
}  // namespace hidisc::stats
