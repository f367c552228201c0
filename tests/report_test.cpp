// Rendering of the full statistics report, plus parameterized cache
// geometry sweeps (LRU/eviction invariants must hold for every legal
// organization, not just Table 1's).
#include <gtest/gtest.h>

#include <tuple>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "mem/cache.hpp"

namespace hidisc {
namespace {

TEST(Report, ContainsEverySectionForHidisc) {
  const auto prog = isa::assemble(R"(
.data
arr: .space 65536
.text
_start:
  la   r4, arr
  li   r5, 512
loop:
  ld   r6, 0(r4)
  add  r7, r7, r6
  addi r4, r4, 128
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)");
  const auto comp = compiler::compile(prog);
  const auto r = machine::run_machine(comp.separated, machine::Preset::HiDISC);
  const auto text = machine::render_report(r);
  for (const char* section :
       {"== execution ==", "== cores ==", "== memory ==", "== branches ==",
        "== queues ==", "== CMP ==", "AP", "LDQ", "IPC"})
    EXPECT_NE(text.find(section), std::string::npos) << section;
}

TEST(Report, OmitsCmpSectionWithoutCmp) {
  const auto prog = isa::assemble("li r1, 3\nhalt\n");
  const auto r = machine::run_machine(prog, machine::Preset::Superscalar);
  const auto text = machine::render_report(r);
  EXPECT_EQ(text.find("== CMP =="), std::string::npos);
  EXPECT_NE(text.find("main"), std::string::npos);
}

// ---- cache geometry sweeps -------------------------------------------------

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CacheGeometry, FillsToCapacityThenEvicts) {
  const auto [sets, block, assoc] = GetParam();
  mem::Cache c(mem::CacheConfig{sets, block, assoc, 1, "sweep"});
  const std::uint64_t lines = static_cast<std::uint64_t>(sets) * assoc;
  // Touch exactly `lines` distinct blocks: all must be resident.
  for (std::uint64_t i = 0; i < lines; ++i)
    c.access(i * block, mem::AccessType::Read, i, 0);
  EXPECT_EQ(c.stats().evictions, 0u);
  for (std::uint64_t i = 0; i < lines; ++i)
    EXPECT_TRUE(c.contains(i * block)) << i;
  // One more block evicts exactly one line.
  c.access(lines * block, mem::AccessType::Read, lines, 0);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST_P(CacheGeometry, RepeatAccessAlwaysHits) {
  const auto [sets, block, assoc] = GetParam();
  mem::Cache c(mem::CacheConfig{sets, block, assoc, 1, "sweep"});
  c.access(0x1234, mem::AccessType::Read, 0, 0);
  for (int i = 1; i < 10; ++i)
    EXPECT_TRUE(c.access(0x1234, mem::AccessType::Read,
                         static_cast<std::uint64_t>(i) + 100, 0)
                    .hit);
  EXPECT_EQ(c.stats().read_misses, 1u);
}

TEST_P(CacheGeometry, LruVictimIsLeastRecentlyUsed) {
  const auto [sets, block, assoc] = GetParam();
  if (assoc < 2) GTEST_SKIP() << "needs associativity";
  mem::Cache c(mem::CacheConfig{sets, block, assoc, 1, "sweep"});
  // Fill one set, touch all but the first again, then overflow the set:
  // the untouched way must be the victim.
  const auto way_stride = static_cast<std::uint64_t>(sets) * block;
  std::uint64_t t = 0;
  for (int w = 0; w < assoc; ++w)
    c.access(w * way_stride, mem::AccessType::Read, ++t, 0);
  for (int w = 1; w < assoc; ++w)
    c.access(w * way_stride, mem::AccessType::Read, ++t, 0);
  c.access(assoc * way_stride, mem::AccessType::Read, ++t, 0);
  EXPECT_FALSE(c.contains(0));
  for (int w = 1; w <= assoc; ++w)
    EXPECT_TRUE(c.contains(w * way_stride)) << w;
}

std::string geometry_name(
    const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
  return std::to_string(std::get<0>(info.param)) + "x" +
         std::to_string(std::get<1>(info.param)) + "x" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, CacheGeometry,
    ::testing::Values(std::make_tuple(2, 16, 1), std::make_tuple(2, 16, 2),
                      std::make_tuple(16, 32, 4), std::make_tuple(256, 32, 4),
                      std::make_tuple(64, 64, 2), std::make_tuple(1, 32, 8),
                      std::make_tuple(1024, 64, 4)),
    geometry_name);

}  // namespace
}  // namespace hidisc
