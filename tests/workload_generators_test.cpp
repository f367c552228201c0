// Invariants of the workload data-set generators (beyond the end-to-end
// golden checks in workloads_test): permutation structure, determinism of
// the RNG, DataBuilder layout, and per-workload structural properties.
#include <gtest/gtest.h>

#include <set>

#include "compiler/compile.hpp"
#include "sim/functional.hpp"
#include "workloads/common.hpp"

namespace hidisc::workloads {
namespace {

TEST(Rng, IsDeterministicAndWellDistributed) {
  Rng a(42), b(42), c(43);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.next();
    EXPECT_EQ(v, b.next());
    values.insert(v);
  }
  EXPECT_NE(a.next(), c.next());
  EXPECT_EQ(values.size(), 1000u);  // no collisions in 1000 draws
}

TEST(Rng, BelowStaysBelow) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UnitIsInHalfOpenInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(DataBuilder, LayoutAndAlignment) {
  DataBuilder db;
  const auto a = db.add_u8(1);
  const auto b = db.align(8);
  const auto c = db.add_u64(2);
  EXPECT_EQ(a, isa::kDataBase);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_EQ(b, c);
  EXPECT_EQ(db.here(), c + 8);
}

TEST(DataBuilder, FinishInstallsImageAndLabels) {
  DataBuilder db;
  db.add_u64(0x1122334455667788ull);
  isa::Program prog;
  db.finish(prog, {{"x", isa::kDataBase}});
  EXPECT_EQ(prog.data.size(), 8u);
  EXPECT_EQ(prog.data[0], 0x88);
  EXPECT_EQ(prog.data_addr("x"), isa::kDataBase);
}

// The Pointer/Update tables are single-cycle permutations (Sattolo): the
// chase visits every slot exactly once before returning to the start.
TEST(PointerTable, IsSingleCyclePermutation) {
  const auto w = make_pointer(Scale::Test);
  const auto base = w.program.data_addr("table");
  sim::Functional f(w.program);  // just to read the initial image
  const std::uint64_t n = 4096;
  std::uint64_t at = 0;
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(seen.insert(at).second) << "revisit before full cycle";
    at = f.memory().read<std::uint64_t>(base + at * 8);
    EXPECT_LT(at, n);
  }
  EXPECT_EQ(at, 0u);  // back to the start after exactly n hops
  EXPECT_EQ(seen.size(), n);
}

TEST(Workloads, ApproxInstructionCountsAreHonest) {
  for (const auto& w : paper_suite(Scale::Test)) {
    sim::Functional f(w.program);
    f.run();
    const double actual = static_cast<double>(f.instructions());
    const double claimed = static_cast<double>(
        w.approx_dynamic_instructions);
    EXPECT_GT(actual, claimed * 0.3) << w.name;
    EXPECT_LT(actual, claimed * 3.0) << w.name;
  }
}

TEST(Workloads, EveryKernelHasNonTrivialStreams) {
  // Each benchmark must exercise the access stream; the FP benchmarks
  // must also exercise the computation stream.
  for (const auto& w : paper_suite(Scale::Test)) {
    const auto sep = compiler::separate_streams(w.program);
    EXPECT_GT(sep.access_count, 4u) << w.name;
    if (w.name == "RayTray" || w.name == "Field" ||
        w.name == "Neighborhood") {
      EXPECT_GT(sep.compute_count, 2u) << w.name;
    }
  }
}

TEST(Workloads, ProbableMissBenchmarksGetCmasGroups) {
  // The low-locality kernels must produce CMAS groups at paper scale
  // thresholds scaled down for test data sets.
  compiler::CompileOptions opt;
  opt.cmas.min_misses = 8;
  opt.cmas.miss_rate_threshold = 0.02;
  for (const auto name : {"Pointer", "Update", "TC"}) {
    for (const auto& w : paper_suite(Scale::Test)) {
      if (w.name != name) continue;
      const auto comp = compiler::compile(w.program, opt);
      EXPECT_FALSE(comp.groups.empty()) << name;
    }
  }
}

TEST(Workloads, RayTracerCellsAreNotCmasTargets) {
  // The FP-fed gather must be dropped (DESIGN.md §6.4).
  const auto w = make_raytrace(Scale::Test);
  compiler::CompileOptions opt;
  opt.cmas.min_misses = 4;
  opt.cmas.miss_rate_threshold = 0.01;
  const auto comp = compiler::compile(w.program, opt);
  const auto grid = w.program.data_addr("grid");
  (void)grid;
  for (const auto& g : comp.groups)
    for (const auto t : g.targets) {
      // Targets may only be the (integer-addressed) ray-parameter loads,
      // never the FP-addressed grid gather, which uses a computed base.
      const auto& inst = comp.original.code[t];
      EXPECT_NE(isa::reg_name(inst.src1), "r15")
          << "grid gather became a CMAS target";
    }
}

TEST(Workloads, DifferentSeedsChangeData) {
  const auto a = make_dm(Scale::Test, 1);
  const auto b = make_dm(Scale::Test, 2);
  EXPECT_NE(a.program.data, b.program.data);
}

}  // namespace
}  // namespace hidisc::workloads
