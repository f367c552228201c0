// The paper's tables and figures as hilab prints them (lab/figures.hpp):
// each figure-bearing plan, run at test scale with no cache, renders byte
// for byte the text under testdata/figures/<plan>.txt.  A diff here is a
// change in what the reproduction reports: update a fixture only for a
// deliberate model change, and EXPERIMENTS.md with it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "lab/figures.hpp"

namespace hidisc::lab {
namespace {

std::string fixture(const std::string& plan) {
  const std::string path =
      std::string(HIDISC_TESTDATA_DIR) + "/figures/" + plan + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class Figures : public ::testing::TestWithParam<std::string> {};

TEST_P(Figures, MatchTheFixture) {
  const auto plan = make_plan(GetParam(), workloads::Scale::Test);
  RunOptions opt;
  opt.threads = 4;
  const auto run = run_plan(plan, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(figures(plan, run), fixture(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Plans, Figures,
    ::testing::Values("paper", "ablation-trigger", "ablation-queues",
                      "ablation-predictor"),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string name = param.param;
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Figures, OtherPlansRenderNothing) {
  const auto plan = make_plan("prefetch", workloads::Scale::Test);
  EXPECT_EQ(figures(plan, PlanRun{}), "");
}

}  // namespace
}  // namespace hidisc::lab
