// Feature-level tests for the mechanisms added on top of the basic
// pipeline: consumer-site communication placement, CMAS value-liveness and
// the fire-and-forget prefetch path, fork modes (paper vs chaining), the
// prefetch buffer, and the SCQ-style runahead bound.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc {
namespace {

using isa::Opcode;
using isa::Stream;

// Execution counts of `prog`, profiled the way compile() profiles it.
compiler::CacheProfile profile_of(const isa::Program& prog) {
  return compiler::profile_run(prog, mem::MemConfig{},
                               compiler::CmasOptions{}.trigger_distance)
      .profile();
}

// A loop-carried FP accumulator stored once after the loop: the classic
// case where producer-site communication would push every iteration.
const char* kAccumulator = R"(
.data
vals: .space 8192
out:  .space 8
.text
_start:
  la   r4, vals
  li   r5, 1024
  cvtif f1, r0
loop:
  fld  f2, 0(r4)
  fadd f1, f1, f2
  addi r4, r4, 8
  addi r5, r5, -1
  bne  r5, r0, loop
  la   r6, out
  fsd  f1, 0(r6)
  halt
)";

TEST(ConsumerSite, AccumulatorUsesOneTransfer) {
  const auto prog = isa::assemble(kAccumulator);
  const auto profile = profile_of(prog);
  const auto sep = compiler::separate_streams(prog, &profile);
  EXPECT_GE(sep.consumer_site_regs, 1u);
  // The accumulator's defs must NOT carry per-iteration push_sdq flags.
  for (const auto& inst : sep.separated.code)
    if (inst.op == Opcode::FADD) {
      EXPECT_FALSE(inst.ann.push_sdq);
    }
  // Exactly one PUSHSDQF (inserted before the store).
  std::size_t pushes = 0;
  for (const auto& inst : sep.separated.code)
    if (inst.op == Opcode::PUSHSDQF) {
      ++pushes;
      EXPECT_TRUE(inst.ann.compiler_inserted);
      EXPECT_EQ(inst.ann.stream, Stream::Compute);
    }
  EXPECT_EQ(pushes, 1u);
}

TEST(ConsumerSite, DynamicTransfersMatchConsumptions) {
  const auto prog = isa::assemble(kAccumulator);
  const auto profile = profile_of(prog);
  const auto sep = compiler::separate_streams(prog, &profile);
  // Run separated and confirm exactly one SDQ round-trip happened: the
  // machine's queue stats record it.
  const auto r = machine::run_machine(sep.separated, machine::Preset::CPAP);
  EXPECT_EQ(r.sdq.pushes, 1u);
  EXPECT_EQ(r.sdq.pops, 1u);
  // The per-iteration LDQ traffic (loads feeding the FP add) remains.
  EXPECT_EQ(r.ldq.pushes, 1024u);
}

TEST(ConsumerSite, EquivalenceStillHolds) {
  const auto prog = isa::assemble(kAccumulator);
  const auto profile = profile_of(prog);
  const auto sep = compiler::separate_streams(prog, &profile);
  sim::Functional f1(prog), f2(sep.separated);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
}

TEST(ConsumerSite, MixedStreamDefsFallBackToProducerSite) {
  // r7 is defined by BOTH streams (a load and an FP-derived integer), so
  // consumer-site placement would be unsound; the compiler must keep
  // producer-site transfers for it.
  const char* src = R"(
.data
v: .dword 9
o: .space 8
.text
_start:
  li   r5, 64
loop:
  ld   r7, v
  cvtif f1, r7
  fadd f2, f1, f1
  cvtfi r7, f2
  sd   r7, o
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
  const auto prog = isa::assemble(src);
  const auto profile = profile_of(prog);
  const auto sep = compiler::separate_streams(prog, &profile);
  sim::Functional f1(prog), f2(sep.separated);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
}

// Chase kernel: CMAS loads feed the slice itself.
const char* kChase = R"(
.data
tbl: .space 131072
res: .space 8
.text
_start:
  la   r4, tbl
  li   r5, 0
  li   r6, 4000
loop:
  slli r7, r5, 3
  add  r7, r7, r4
  ld   r5, 0(r7)
  addi r6, r6, -1
  bne  r6, r0, loop
  la   r8, res
  sd   r5, 0(r8)
  halt
)";

// Strided kernel: CMAS load values feed nothing address-relevant.
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

isa::Program chase_program() {
  // Fill the table with a shifted self-map so the chase cycles safely.
  auto prog = isa::assemble(kChase);
  const auto base = prog.data_addr("tbl") - isa::kDataBase;
  for (std::uint64_t i = 0; i < 16384; ++i) {
    const std::uint64_t next = (i * 7919 + 1) % 16384;
    std::memcpy(prog.data.data() + base + i * 8, &next, 8);
  }
  return prog;
}

TEST(Cmas, ChaseLoadsAreValueLive) {
  auto prog = chase_program();
  const auto comp = compiler::compile(prog);
  bool saw_live = false;
  for (const auto& inst : comp.original.code)
    if (inst.ann.in_cmas && isa::is_load(inst.op))
      saw_live |= inst.ann.cmas_value_live;
  EXPECT_TRUE(saw_live);
}

TEST(Cmas, StridedLoadsAreFireAndForget) {
  auto prog = isa::assemble(kStrided);
  const auto comp = compiler::compile(prog);
  bool any_cmas_load = false;
  for (const auto& inst : comp.original.code)
    if (inst.ann.in_cmas && isa::is_load(inst.op)) {
      any_cmas_load = true;
      EXPECT_FALSE(inst.ann.cmas_value_live);
    }
  EXPECT_TRUE(any_cmas_load);
}

TEST(ForkModes, ChainingIsGapFreePaperModeLeavesHoles) {
  const auto p = compiler::compile(isa::assemble(kStrided));
  machine::MachineConfig paper_mode;
  paper_mode.cmp_chaining = false;
  paper_mode.cmp_prefetch_buffer = 32;  // ample: isolate the fork mode
  machine::MachineConfig chaining = paper_mode;
  chaining.cmp_chaining = true;
  chaining.cmp_targets_per_fork = 256;  // long-lived slice instances
  const auto r_paper =
      machine::run_machine(p.separated, machine::Preset::HiDISC, paper_mode);
  const auto r_chain = machine::run_machine(p.separated,
                                            machine::Preset::HiDISC, chaining);
  // Chaining covers every slice micro-op (2 per iteration); the paper-mode
  // fork jumps forward when the CMP falls behind and leaves holes.
  EXPECT_GT(r_chain.cmas_uops, r_paper.cmas_uops);
  EXPECT_LT(r_paper.cmas_uops, r_paper.instructions);
  // Paper-mode instances start at the trigger distance, so on this
  // DRAM-bound stream some of their fills complete in time; chaining from
  // the fetch position can never build a lead against equal fill demand
  // (every prefetch is an in-flight late hit).
  EXPECT_GT(r_paper.l1.useful_prefetches, 0u);
  EXPECT_GT(r_paper.cmas_forks, 0u);
  EXPECT_GT(r_chain.cmas_forks, 0u);
}

TEST(PrefetchBuffer, SmallerBufferCoversFewerMisses) {
  const auto p = compiler::compile(isa::assemble(kStrided));
  machine::MachineConfig small_buf;
  small_buf.cmp_prefetch_buffer = 1;
  machine::MachineConfig big_buf;
  big_buf.cmp_prefetch_buffer = 32;
  const auto r_small = machine::run_machine(p.separated,
                                            machine::Preset::HiDISC, small_buf);
  const auto r_big = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                          big_buf);
  EXPECT_LT(r_big.l1.demand_misses(), r_small.l1.demand_misses());
  EXPECT_LE(r_big.cycles, r_small.cycles);
}

TEST(Runahead, TinyBoundStarvesTheCmp) {
  // The slip-control bound is the constant kCmpMaxRunahead, tiny next to
  // a fork lookahead four times its size.  A fork anchored within the
  // bound scans at once; one anchored beyond it may not scan until fetch
  // comes within the bound, so the SCQ keeps the CMP pinned to the front
  // end and it covers fewer misses.
  const auto p = compiler::compile(isa::assemble(kStrided));
  machine::MachineConfig within;
  within.cmp_prefetch_buffer = 32;
  within.cmp_fork_lookahead = machine::kCmpMaxRunahead / 2;
  machine::MachineConfig beyond = within;
  beyond.cmp_fork_lookahead = machine::kCmpMaxRunahead * 4;
  const auto r_within = machine::run_machine(
      p.separated, machine::Preset::HiDISC, within);
  const auto r_beyond = machine::run_machine(
      p.separated, machine::Preset::HiDISC, beyond);
  EXPECT_LT(r_beyond.l1.prefetches, r_within.l1.prefetches);
  EXPECT_GT(r_beyond.cycles, r_within.cycles);
}

TEST(SerialGroups, ChaseForksAlwaysChainEvenInPaperMode) {
  auto prog = chase_program();
  const auto p = compiler::compile(prog);
  machine::MachineConfig paper_mode;
  paper_mode.cmp_chaining = false;
  const auto r = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                      paper_mode);
  // The chase is serial: the CMP cannot teleport ahead, so HiDISC ends up
  // within a whisker of the baseline (never dramatically faster).
  const auto base = machine::run_machine(p.original,
                                         machine::Preset::Superscalar);
  EXPECT_LT(static_cast<double>(base.cycles) / r.cycles, 1.25);
}

TEST(DynamicDistance, RecoversFromABadStart) {
  // TC with a deliberately too-short fork distance: the controller must
  // grow it and recover most of the gap to the well-tuned static setting.
  const auto p = compiler::compile(isa::assemble(kStrided));
  machine::MachineConfig bad;
  bad.cmp_fork_lookahead = 64;
  machine::MachineConfig dyn = bad;
  dyn.cmp_dynamic_distance = true;
  const auto r_bad = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                          bad);
  const auto r_dyn = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                          dyn);
  EXPECT_GT(r_dyn.distance_adaptations, 0u);
  EXPECT_LE(r_dyn.cycles, r_bad.cycles * 101 / 100);  // never clearly worse
}

TEST(DynamicDistance, OffByDefault) {
  const auto p = compiler::compile(isa::assemble(kStrided));
  const auto r = machine::run_machine(p.separated, machine::Preset::HiDISC);
  EXPECT_EQ(r.distance_adaptations, 0u);
  EXPECT_EQ(r.final_fork_lookahead, machine::MachineConfig{}.cmp_fork_lookahead);
}

// Loads striding exactly one L1 way-ring (8 KiB): every access maps to
// the same set, so anything prefetched more than four lines ahead is
// evicted before use — structurally wasted prefetching.
const char* kSetConflict = R"(
.data
arr: .space 4194304
.text
_start:
  la   r4, arr
  li   r5, 512
loop:
  ld   r6, 0(r4)
  add  r7, r7, r6
  addi r4, r4, 8192
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";

TEST(AdaptiveRange, SuppressesSelfEvictingPrefetchGroups) {
  // Ablation E (runtime prefetch-range control, paper §6 future work).
  // The CMP's prefetches for the set-conflicting stride die unused; the
  // range controller must notice the waste and suppress forks, and
  // performance must not get worse.
  const auto p = compiler::compile(isa::assemble(kSetConflict));
  machine::MachineConfig wasteful;  // paper-mode forks, ample buffer
  wasteful.cmp_prefetch_buffer = 32;
  machine::MachineConfig adaptive = wasteful;
  adaptive.cmp_adaptive_range = true;
  const auto r_w = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                        wasteful);
  const auto r_a = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                        adaptive);
  EXPECT_GT(r_a.cmas_forks_suppressed, 0u);
  EXPECT_LT(r_a.l1.prefetches, r_w.l1.prefetches);
  EXPECT_LE(r_a.cycles, r_w.cycles * 102 / 100);
  // EXPERIMENTS.md's Ablation E: the controller cuts prefetches
  // 447 -> 196 at identical cycles.
  EXPECT_EQ(r_w.cycles, 4346u);
  EXPECT_EQ(r_a.cycles, 4346u);
  EXPECT_EQ(r_w.l1.prefetches, 447u);
  EXPECT_EQ(r_a.l1.prefetches, 196u);
  EXPECT_EQ(r_w.cmas_forks_suppressed, 0u);
  EXPECT_EQ(r_a.cmas_forks_suppressed, 435u);
}

TEST(AdaptiveRange, LeavesUsefulGroupsAlone) {
  // Default configuration: prefetches are consumed, nothing is wasted, so
  // the controller must not interfere.
  const auto p = compiler::compile(isa::assemble(kStrided));
  machine::MachineConfig cfg;
  cfg.cmp_adaptive_range = true;
  const auto r = machine::run_machine(p.separated, machine::Preset::HiDISC,
                                      cfg);
  const auto base = machine::run_machine(p.separated, machine::Preset::HiDISC);
  EXPECT_EQ(r.cmas_forks_suppressed, 0u);
  EXPECT_EQ(r.cycles, base.cycles);
}

TEST(Triggers, FiringIsRecordedAndBounded) {
  const auto p = compiler::compile(isa::assemble(kStrided));
  const auto r = machine::run_machine(p.separated, machine::Preset::HiDISC);
  EXPECT_GT(r.cmas_forks, 0u);
  EXPECT_GT(r.cmas_uops, 0u);
  // Micro-ops per fork can't exceed what one instance allows by much
  // (address-chain ops + loads per target).
  EXPECT_LT(r.cmas_uops, r.instructions);
}

}  // namespace
}  // namespace hidisc
