// Workload suite tests: every benchmark must (1) validate against its
// golden C++ reference on the functional simulator, (2) survive the HiDISC
// compiler with functional equivalence, and (3) run to completion on every
// machine preset.  These are the paper-level end-to-end invariants.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"
#include "workloads/common.hpp"

namespace hidisc::workloads {
namespace {

class WorkloadSuite : public ::testing::TestWithParam<int> {
 protected:
  BuiltWorkload build() const {
    switch (GetParam()) {
      case 0: return make_dm(Scale::Test);
      case 1: return make_raytrace(Scale::Test);
      case 2: return make_pointer(Scale::Test);
      case 3: return make_update(Scale::Test);
      case 4: return make_field(Scale::Test);
      case 5: return make_neighborhood(Scale::Test);
      case 6: return make_transitive(Scale::Test);
      case 7: return make_matrix(Scale::Test);
      case 8: return make_cornerturn(Scale::Test);
      case 9: return make_fft(Scale::Test);
      default: return make_image(Scale::Test);
    }
  }
};

TEST_P(WorkloadSuite, GoldenValidationOnFunctionalSim) {
  const auto w = build();
  sim::Functional f(w.program);
  f.run();
  EXPECT_TRUE(w.validate(f)) << w.name;
}

TEST_P(WorkloadSuite, SeparatedBinaryValidatesToo) {
  const auto w = build();
  const auto c = compiler::compile(w.program);
  sim::Functional f(c.separated);
  f.run();
  EXPECT_TRUE(w.validate(f)) << w.name << " (separated)";
}

TEST_P(WorkloadSuite, AllPresetsRunToCompletion) {
  const auto w = build();
  const auto c = compiler::compile(w.program);
  for (const auto preset :
       {machine::Preset::Superscalar, machine::Preset::CPAP,
        machine::Preset::CPCMP, machine::Preset::HiDISC}) {
    const auto& bin =
        machine::uses_separated_binary(preset) ? c.separated : c.original;
    sim::Functional f(bin);
    f.run();
    const auto r = machine::run_machine(bin, preset);
    EXPECT_EQ(r.instructions, f.instructions())
        << w.name << " on " << machine::preset_name(preset);
    EXPECT_GT(r.cycles, 0u);
    // Queue discipline holds on every run.
    EXPECT_EQ(r.ldq.pushes, r.ldq.pops) << w.name;
    EXPECT_EQ(r.sdq.pushes, r.sdq.pops) << w.name;
  }
}

std::string workload_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {
      "DM",           "RayTray", "Pointer", "Update",     "Field",
      "Neighborhood", "TC",      "Matrix",  "CornerTurn", "FFT",
      "Image"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSuite,
                         ::testing::Range(0, 11), workload_name);

TEST(WorkloadSuiteBuilder, ExtraSuiteCompletesTheStressmarks) {
  const auto extra = extra_suite(Scale::Test);
  ASSERT_EQ(extra.size(), 4u);
  EXPECT_EQ(extra[0].name, "Matrix");
  EXPECT_EQ(extra[1].name, "CornerTurn");
  EXPECT_EQ(extra[2].name, "FFT");
  EXPECT_EQ(extra[3].name, "Image");
}

TEST(WorkloadSuiteBuilder, PaperSuiteHasSevenBenchmarksInPlotOrder) {
  const auto suite = paper_suite(Scale::Test);
  ASSERT_EQ(suite.size(), 7u);
  EXPECT_EQ(suite[0].name, "DM");
  EXPECT_EQ(suite[1].name, "RayTray");
  EXPECT_EQ(suite[2].name, "Pointer");
  EXPECT_EQ(suite[3].name, "Update");
  EXPECT_EQ(suite[4].name, "Field");
  EXPECT_EQ(suite[5].name, "Neighborhood");
  EXPECT_EQ(suite[6].name, "TC");
}

TEST(WorkloadDeterminism, SameSeedSameProgram) {
  const auto a = make_pointer(Scale::Test, 9);
  const auto b = make_pointer(Scale::Test, 9);
  EXPECT_EQ(a.program.code, b.program.code);
  EXPECT_EQ(a.program.data, b.program.data);
  const auto c = make_pointer(Scale::Test, 10);
  EXPECT_NE(c.program.data, a.program.data);
}

TEST(WorkloadValidators, DetectCorruption) {
  const auto w = make_pointer(Scale::Test);
  sim::Functional f(w.program);
  f.run();
  ASSERT_TRUE(w.validate(f));
  // Corrupt the result cell: the validator must notice.
  const auto res = w.program.data_addr("result");
  f.memory().write<std::uint64_t>(res, 0xdeadbeef);
  EXPECT_FALSE(w.validate(f));
}

}  // namespace
}  // namespace hidisc::workloads
