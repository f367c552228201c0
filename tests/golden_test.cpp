// Golden Results: the test-scale `paper` plan, digested cell by cell and
// compared with a checked-in file.
//
// The Lockstep shadow and the fuzz scheduler oracle both compare two runs
// of the same core model, so a change that alters every scheduler the same
// way passes them.  This test pins the Results themselves.  A cell's
// digest is FNV-1a 64 over the same text `perfbench/run.py --digest-of`
// hashes for that cell ("cell i" and its sorted name=value lines), and
// the whole-grid digest is the one that script prints for a
// `hilab --plan paper --scale test --json` export.
//
// There is no update switch: when a Result change is intended, the
// failure message prints the lines to paste into the golden file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"

namespace {

using namespace hidisc;

constexpr const char* kGridDigest = "8ba02a13c1601290";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string cell_text(std::size_t i, const machine::Result& r) {
  std::string text = "cell " + std::to_string(i) + "\n";
  for (const auto& [name, value] : lab::result_to_fields(r))
    text += name + "=" + value + "\n";
  return text;
}

// One golden line: index, workload, preset, tag ("-" when empty), digest.
std::string golden_line(std::size_t i, const lab::Cell& cell,
                        const std::string& digest) {
  return std::to_string(i) + " " + cell.workload.name + " " +
         machine::preset_name(cell.preset) + " " +
         (cell.tag.empty() ? std::string("-") : cell.tag) + " " + digest;
}

std::vector<std::string> read_golden() {
  std::ifstream in(HIDISC_GOLDEN_FILE);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  return lines;
}

TEST(GoldenResults, TestScalePaperPlanMatchesCheckedInDigests) {
  const auto plan = lab::plan_paper(workloads::Scale::Test);
  lab::RunOptions opt;
  opt.threads = 4;
  const auto run = lab::run_plan(plan, opt);
  ASSERT_TRUE(run.ok()) << run.failed << " cells failed";
  ASSERT_EQ(run.cells.size(), plan.cells.size());

  std::string grid_text;
  std::vector<std::string> got;
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const auto text = cell_text(i, run.cells[i].result);
    grid_text += text;
    got.push_back(golden_line(i, plan.cells[i], hex16(lab::fnv1a64(text))));
  }

  const auto want = read_golden();
  std::ostringstream diff;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    const std::string g = i < got.size() ? got[i] : "<missing>";
    const std::string w = i < want.size() ? want[i] : "<missing>";
    if (g == w) continue;
    ++mismatched;
    diff << "  want " << w << "\n   got " << g << "\n";
  }
  if (mismatched != 0) {
    std::ostringstream paste;
    for (const auto& line : got) paste << line << "\n";
    ADD_FAILURE() << mismatched << " cells differ from "
                  << HIDISC_GOLDEN_FILE << ":\n"
                  << diff.str()
                  << "If the Result change is intended, replace the file's "
                     "cell lines with:\n"
                  << paste.str();
  }
  EXPECT_EQ(hex16(lab::fnv1a64(grid_text)), kGridDigest)
      << "whole-grid digest (perfbench/run.py --digest-of on a "
         "`hilab --plan paper --scale test --json` export)";
}

}  // namespace
