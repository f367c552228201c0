// Integration tests for the four machine configurations: termination,
// stat plausibility, queue discipline, latency effects, decoupling slip,
// and CMP prefetching.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc::machine {
namespace {

using compiler::Compilation;
using isa::assemble;

const char* kStrided = R"(
.data
arr: .space 524288
.text
_start:
  la   r4, arr
  li   r5, 4096
loop:
  ld   r6, 0(r4)
  add  r7, r7, r6
  addi r4, r4, 128
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";

// FP producer-consumer loop (decoupling-friendly: loads feed FP compute).
const char* kDaxpy = R"(
.data
xv: .space 65536
yv: .space 65536
aa: .double 3.25
.text
_start:
  la   r4, xv
  la   r5, yv
  fld  f2, aa
  li   r6, 8192
loop:
  fld  f4, 0(r4)
  fld  f6, 0(r5)
  fmul f8, f4, f2
  fadd f10, f8, f6
  fsd  f10, 0(r5)
  addi r4, r4, 8
  addi r5, r5, 8
  addi r6, r6, -1
  bne  r6, r0, loop
  halt
)";

Compilation prepare(const char* src, compiler::CompileOptions copt = {}) {
  return compiler::compile(assemble(src), copt);
}

Result run_preset(const Compilation& p, Preset preset,
                  const MachineConfig& cfg = {}) {
  return run_machine(uses_separated_binary(preset) ? p.separated : p.original,
                     preset, cfg);
}

std::uint64_t dynamic_instructions(const isa::Program& prog) {
  sim::Functional f(prog);
  f.run();
  return f.instructions();
}

TEST(Machine, SuperscalarCommitsWholeTrace) {
  const auto p = prepare(kStrided);
  const auto r = run_preset(p, Preset::Superscalar);
  EXPECT_EQ(r.instructions, dynamic_instructions(p.original));
  EXPECT_TRUE(r.has_main);
  EXPECT_FALSE(r.has_cp);
  EXPECT_GT(r.ipc, 0.05);
  EXPECT_LT(r.ipc, 8.0);
}

TEST(Machine, CpApCommitsWholeSeparatedTrace) {
  const auto p = prepare(kDaxpy);
  const auto r = run_preset(p, Preset::CPAP);
  EXPECT_EQ(r.instructions, dynamic_instructions(p.separated));
  EXPECT_TRUE(r.has_cp);
  EXPECT_TRUE(r.has_ap);
  EXPECT_FALSE(r.has_cmp);
  // Queue discipline: every push was popped, queues ended empty.
  EXPECT_EQ(r.ldq.pushes, r.ldq.pops);
  EXPECT_EQ(r.sdq.pushes, r.sdq.pops);
  EXPECT_GT(r.ldq.pushes, 0u);
}

TEST(Machine, HidiscRunsAllThreeProcessors) {
  const auto p = prepare(kStrided);
  const auto r = run_preset(p, Preset::HiDISC);
  EXPECT_TRUE(r.has_cp);
  EXPECT_TRUE(r.has_ap);
  EXPECT_TRUE(r.has_cmp);
  EXPECT_GT(r.cmas_forks, 0u);
  EXPECT_GT(r.cmas_uops, 0u);
  EXPECT_GT(r.cmp.committed_all, 0u);
  EXPECT_EQ(r.cmp.committed, 0u);  // CMP work is never architectural
}

TEST(Machine, CmpPrefetchingReducesApMissesAndCycles) {
  const auto p = prepare(kStrided);
  const auto base = run_preset(p, Preset::Superscalar);
  const auto hidisc = run_preset(p, Preset::HiDISC);
  const auto cpcmp = run_preset(p, Preset::CPCMP);
  // The strided scan misses on every iteration at baseline; the CMP
  // prefetches ahead, so line-absent misses (demand misses minus MSHR-
  // merged delayed hits) and cycles must drop.
  EXPECT_LT(hidisc.l1.demand_misses() - hidisc.l1.late_fill_hits,
            base.l1.demand_misses());
  EXPECT_LT(hidisc.cycles, base.cycles);
  EXPECT_LT(cpcmp.cycles, base.cycles);
  EXPECT_GT(hidisc.l1.useful_prefetches + hidisc.l1.late_fill_hits, 100u);
}

TEST(Machine, LongerMemoryLatencyCostsBaselineMore) {
  const auto p = prepare(kStrided);
  MachineConfig short_lat;
  short_lat.mem = mem::MemConfig::with_latencies(4, 40);
  MachineConfig long_lat;
  long_lat.mem = mem::MemConfig::with_latencies(16, 160);

  const auto base_s = run_preset(p, Preset::Superscalar, short_lat);
  const auto base_l = run_preset(p, Preset::Superscalar, long_lat);
  const auto hd_s = run_preset(p, Preset::HiDISC, short_lat);
  const auto hd_l = run_preset(p, Preset::HiDISC, long_lat);

  const double base_degradation =
      static_cast<double>(base_l.cycles) / base_s.cycles;
  const double hd_degradation =
      static_cast<double>(hd_l.cycles) / hd_s.cycles;
  EXPECT_GT(base_degradation, 1.05);
  EXPECT_LT(hd_degradation, base_degradation);
}

TEST(Machine, BranchPredictorSeesEveryLoopBranch) {
  const auto p = prepare(kStrided);
  const auto r = run_preset(p, Preset::Superscalar);
  EXPECT_GE(r.branch.lookups, 4096u);
  EXPECT_LT(r.branch.mispredict_rate(), 0.05);
}

TEST(Machine, MispredictsStallFetch) {
  // Data-dependent alternating branch: near-50% mispredicts.
  const char* src = R"(
.text
_start:
  li r5, 3000
  li r8, 0
loop:
  andi r6, r5, 1
  beq  r6, r0, even
  addi r8, r8, 3
  j    next
even:
  addi r8, r8, 5
next:
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
  const auto p = prepare(src);
  const auto r = run_preset(p, Preset::Superscalar);
  EXPECT_GT(r.branch.mispredicts, 1000u);
  EXPECT_GT(r.fetch_stall_branch_cycles, 1000u);
}

TEST(Machine, ApStallsOnSdqAreLodEvents) {
  // Store data produced by a long FP chain: the AP waits on the SDQ.
  const auto p = prepare(kDaxpy);
  const auto r = run_preset(p, Preset::CPAP);
  EXPECT_GT(r.ap.lod_stalls, 0u);
}

TEST(Machine, WatchdogAbortsStuckConfiguration) {
  // A hand-broken binary: a POPLDQ with no matching push deadlocks the CP.
  auto prog = assemble("popldq r1\nhalt\n");
  prog.code[0].ann.stream = isa::Stream::Compute;
  prog.code[1].ann.stream = isa::Stream::Access;
  // Build a fake trace manually (the functional sim would throw).
  sim::Trace trace;
  trace.push_back({0, 1, 0, 0});
  trace.push_back({1, 1, 0, 0});
  MachineConfig cfg;
  cfg.watchdog_cycles = 2000;
  Machine m(prog, trace, Preset::CPAP, cfg);
  EXPECT_THROW((void)m.run(), std::runtime_error);
}

TEST(Machine, ICacheModelChargesColdFetchOnly) {
  const auto p = prepare(kStrided);
  MachineConfig off;
  MachineConfig on;
  on.model_icache = true;
  const auto r_off = run_preset(p, Preset::Superscalar, off);
  const auto r_on = run_preset(p, Preset::Superscalar, on);
  // Loop-resident code: only cold-start fetch misses, so the cost is a
  // handful of fills, not a per-iteration tax.
  EXPECT_GE(r_on.cycles, r_off.cycles);
  EXPECT_LT(r_on.cycles, r_off.cycles + 2000);
}

TEST(Machine, GsharePredictorIsSelectable) {
  // A history-friendly branch pattern: period-2 taken/not-taken.
  const char* src = R"(
.text
_start:
  li r5, 4000
loop:
  andi r6, r5, 1
  beq  r6, r0, even
  addi r8, r8, 3
  j    next
even:
  addi r8, r8, 5
next:
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
  const auto p = prepare(src);
  MachineConfig bimodal;
  MachineConfig gshare;
  gshare.predictor_kind = uarch::PredictorKind::GShare;
  const auto rb = run_preset(p, Preset::Superscalar, bimodal);
  const auto rg = run_preset(p, Preset::Superscalar, gshare);
  EXPECT_LT(rg.branch.mispredicts, rb.branch.mispredicts / 2);
  EXPECT_LT(rg.cycles, rb.cycles);
}

TEST(Machine, ConvenienceOverloadTracesInternally) {
  const auto prog = assemble("li r1, 5\nhalt\n");
  const auto r = run_machine(prog, Preset::Superscalar);
  EXPECT_EQ(r.instructions, 2u);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Machine, CyclesScaleWithWork) {
  const auto small = run_machine(assemble(R"(
.text
_start:
  li r5, 100
loop: addi r5, r5, -1
  bne r5, r0, loop
  halt
)"), Preset::Superscalar);
  const auto big = run_machine(assemble(R"(
.text
_start:
  li r5, 10000
loop: addi r5, r5, -1
  bne r5, r0, loop
  halt
)"), Preset::Superscalar);
  EXPECT_GT(big.cycles, 10 * small.cycles);
}

}  // namespace
}  // namespace hidisc::machine
