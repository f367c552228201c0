// Cache profiling, CMAS extraction, and trigger selection tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "compiler/cmas.hpp"
#include "compiler/compile.hpp"
#include "compiler/profiler.hpp"
#include "isa/assembler.hpp"
#include "sim/functional.hpp"
#include "workloads/common.hpp"

namespace hidisc::compiler {
namespace {

using isa::Opcode;
using isa::assemble;

// A strided scan over a large array: every load visits a new cache block,
// so the load's miss rate is ~1.
const char* kStridedMisses = R"(
.data
arr: .space 262144
.text
_start:
  la   r4, arr
  li   r5, 2048
loop:
  ld   r6, 0(r4)
  add  r7, r7, r6
  addi r4, r4, 128
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";

// The materialised-trace definition of trigger selection the streamed
// observer replaced: for each dynamic occurrence of a target, histogram
// the static instruction `distance` entries earlier; the most frequent
// wins, ties go to the lowest index, -1 when nothing was counted.
std::int32_t reference_trigger(const sim::Trace& trace,
                               const std::vector<std::int32_t>& targets,
                               int distance) {
  if (distance < 0) return -1;
  const auto d = static_cast<std::size_t>(distance);
  std::map<std::int32_t, std::uint64_t> histogram;
  for (std::size_t pos = d; pos < trace.size(); ++pos)
    if (std::find(targets.begin(), targets.end(), trace[pos].static_idx) !=
        targets.end())
      ++histogram[trace[pos - d].static_idx];
  std::int32_t best = -1;
  std::uint64_t best_count = 0;
  for (const auto& [idx, count] : histogram)  // ascending: ties keep lowest
    if (count > best_count) {
      best = idx;
      best_count = count;
    }
  return best;
}

// Feeds `trace` to a fresh observer in uneven chunks, as a streamed run
// would with a small chunk size.
ProfileObserver observe_trace(const isa::Program& p, const sim::Trace& trace,
                              int distance) {
  ProfileObserver obs(p, mem::MemConfig{}, distance);
  std::size_t pos = 0;
  for (std::size_t len = 1; pos < trace.size(); len = len % 7 + 1) {
    const std::size_t n = std::min(len, trace.size() - pos);
    obs.observe(std::span<const sim::TraceEntry>(trace.data() + pos, n));
    pos += n;
  }
  return obs;
}

std::vector<std::int32_t> loads_of(const isa::Program& p) {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < p.code.size(); ++i)
    if (isa::is_load(p.code[i].op)) out.push_back(static_cast<std::int32_t>(i));
  return out;
}

TEST(Profiler, AttributesMissesToTheStridedLoad) {
  const auto p = assemble(kStridedMisses);
  const auto obs = profile_run(p, mem::MemConfig{}, 512);
  const auto& profile = obs.profile();
  const auto hot = profile.probable_miss_instructions(0.5, 64);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(p.code[hot[0]].op, Opcode::LD);
  EXPECT_EQ(profile.per_instr[hot[0]].mem_accesses, 2048u);
  EXPECT_GT(profile.per_instr[hot[0]].miss_rate(), 0.9);
  sim::Functional f(p);
  EXPECT_EQ(profile.dynamic_instructions, f.run_trace().size());
}

TEST(Profiler, HighLocalityLoadIsNotProbableMiss) {
  const auto p = assemble(R"(
.data
v: .dword 7
.text
_start:
  li r5, 5000
loop:
  ld r6, v
  addi r5, r5, -1
  bne r5, r0, loop
  halt
)");
  const auto obs = profile_run(p, mem::MemConfig{}, 512);
  EXPECT_TRUE(obs.profile().probable_miss_instructions(0.05, 64).empty());
}

TEST(Profiler, SelectTriggerFindsInstructionAtDistance) {
  // Synthetic trace: repeating block of 10 static instructions, of which
  // 7 is a load.
  std::string src = "_start:\n";
  for (int i = 0; i < 10; ++i)
    src += i == 7 ? "  ld r6, 0(r4)\n" : "  addi r5, r5, 1\n";
  const auto p = assemble(src);
  sim::Trace trace;
  for (int rep = 0; rep < 200; ++rep)
    for (std::int32_t i = 0; i < 10; ++i)
      trace.push_back({i, i == 9 ? 0 : i + 1, 0, 0});
  // Target = instruction 7; at distance 20 (two reps back) the same slot
  // is instruction 7 again.
  EXPECT_EQ(observe_trace(p, trace, 20).select_trigger({7}), 7);
  // Distance 23 lands on instruction 4.
  EXPECT_EQ(observe_trace(p, trace, 23).select_trigger({7}), 4);
}

TEST(Profiler, SelectTriggerEmptyInputs) {
  const auto p = assemble("_start:\n  ld r6, 0(r4)\n  halt\n");
  EXPECT_EQ(observe_trace(p, {}, 10).select_trigger({0}), -1);
  EXPECT_EQ(observe_trace(p, {{0, 1, 0, 0}}, 0).select_trigger({}), -1);
}

TEST(Profiler, StreamedProfileMatchesTheMaterialisedTrace) {
  const auto p = assemble(kStridedMisses);
  sim::Functional f(p);
  const auto trace = f.run_trace();
  const auto streamed = profile_run(p, mem::MemConfig{}, 512).profile();
  const auto replayed = observe_trace(p, trace, 512).profile();
  EXPECT_EQ(streamed.dynamic_instructions, trace.size());
  EXPECT_EQ(streamed.total_l1_misses, replayed.total_l1_misses);
  ASSERT_EQ(streamed.per_instr.size(), p.code.size());
  std::vector<std::uint64_t> executions(p.code.size(), 0);
  for (const auto& e : trace) ++executions[e.static_idx];
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    EXPECT_EQ(streamed.per_instr[i].executions, executions[i]) << i;
    EXPECT_EQ(streamed.per_instr[i].mem_accesses,
              replayed.per_instr[i].mem_accesses) << i;
    EXPECT_EQ(streamed.per_instr[i].l1_misses,
              replayed.per_instr[i].l1_misses) << i;
  }
}

// Two strided loads sharing one address chain: one merged CMAS group with
// two targets, plus loop-control instructions as trigger candidates.
const char* kSharedChain = R"(
.data
arr: .space 262144
.text
_start:
  la   r4, arr
  li   r5, 1500
loop:
  ld   r6, 0(r4)
  add  r7, r7, r6
  ld   r8, 64(r4)
  add  r7, r7, r8
  addi r4, r4, 128
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";

TEST(TriggerSelection, EdgeDistancesMatchTheMaterialisedDefinition) {
  const auto p = assemble(kSharedChain);
  sim::Functional f(p);
  const auto trace = f.run_trace();
  const auto loads = loads_of(p);
  ASSERT_EQ(loads.size(), 2u);
  const int len = static_cast<int>(trace.size());
  int last_load = len - 1;
  while (!isa::is_load(p.code[trace[last_load].static_idx].op)) --last_load;
  for (const int d : {0, 1, 2, 7, 512, last_load, last_load + 1, len - 1, len,
                      len + 5, -1, -512}) {
    const auto obs = observe_trace(p, trace, d);
    for (const auto& targets : std::vector<std::vector<std::int32_t>>{
             {loads[0]}, {loads[1]}, loads, {}})
      EXPECT_EQ(obs.select_trigger(targets),
                reference_trigger(trace, targets, d))
          << "distance " << d << ", " << targets.size() << " targets";
  }
  // The edges themselves: distance 0 is the load itself; the last load
  // can look back to the run's first instruction and no further; a
  // negative distance or one at least the run length selects nothing.
  EXPECT_EQ(observe_trace(p, trace, 0).select_trigger({loads[1]}), loads[1]);
  EXPECT_EQ(observe_trace(p, trace, last_load).select_trigger(loads),
            trace[0].static_idx);
  EXPECT_EQ(observe_trace(p, trace, last_load + 1).select_trigger(loads), -1);
  EXPECT_EQ(observe_trace(p, trace, -1).select_trigger(loads), -1);
  EXPECT_EQ(observe_trace(p, trace, len).select_trigger(loads), -1);
}

TEST(TriggerSelection, TiesGoToTheLowestIndex) {
  // Load 1 is preceded equally often by instructions 2 and 0.
  const auto p = assemble(R"(
_start:
  addi r1, r1, 1
  ld   r2, 0(r3)
  addi r4, r4, 1
  halt
)");
  sim::Trace trace;
  for (int rep = 0; rep < 50; ++rep)
    for (const std::int32_t i : {2, 1, 0, 1}) trace.push_back({i, 0, 0, 0});
  const auto obs = observe_trace(p, trace, 1);
  EXPECT_EQ(reference_trigger(trace, {1}, 1), 0);
  EXPECT_EQ(obs.select_trigger({1}), 0);
}

TEST(TriggerSelection, MergedGroupSumsItsTargets) {
  auto p = assemble(kSharedChain);
  sim::Functional f(p);
  const auto trace = f.run_trace();
  CmasOptions opt;
  opt.trigger_distance = 3;
  const auto obs = profile_run(p, mem::MemConfig{}, opt.trigger_distance);
  const auto groups = extract_cmas(p, obs, opt);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].targets, loads_of(p));
  EXPECT_GE(groups[0].trigger, 0);
  EXPECT_EQ(groups[0].trigger,
            reference_trigger(trace, groups[0].targets, 3));
}

TEST(TriggerSelection, FirstGroupKeepsAContestedTrigger) {
  // Two independent strided loads, two instructions apart, each followed
  // by a 2-instruction spin loop of 80 steps: at distance 30 both loads
  // look back onto the same spin instruction.
  auto p = assemble(R"(
.data
a: .space 262144
b: .space 262144
.text
_start:
  la   r4, a
  la   r8, b
  li   r5, 1024
loop:
  ld   r6, 0(r4)
  nop
  ld   r7, 0(r8)
  li   r9, 40
spin:
  addi r9, r9, -1
  bne  r9, r0, spin
  addi r4, r4, 128
  addi r8, r8, 128
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)");
  sim::Functional f(p);
  const auto trace = f.run_trace();
  CmasOptions opt;
  opt.trigger_distance = 30;
  const auto obs = profile_run(p, mem::MemConfig{}, opt.trigger_distance);
  const auto groups = extract_cmas(p, obs, opt);
  ASSERT_EQ(groups.size(), 2u);
  const std::int32_t contested = reference_trigger(trace, groups[0].targets, 30);
  ASSERT_GE(contested, 0);
  EXPECT_EQ(reference_trigger(trace, groups[1].targets, 30), contested);
  EXPECT_EQ(obs.select_trigger(groups[1].targets), contested);
  EXPECT_EQ(groups[0].trigger, contested);
  EXPECT_EQ(groups[1].trigger, -1);
  EXPECT_TRUE(p.code[contested].ann.is_trigger);
  EXPECT_EQ(p.code[contested].ann.trigger_group, groups[0].id);
}

TEST(BackwardSlice, FollowsAddressChainOnly) {
  const auto p = assemble(kStridedMisses);
  // Find the ld instruction.
  std::int32_t ld_idx = -1;
  for (std::size_t i = 0; i < p.code.size(); ++i)
    if (p.code[i].op == Opcode::LD) ld_idx = static_cast<std::int32_t>(i);
  ASSERT_GE(ld_idx, 0);
  const auto slice = backward_slice(p, ld_idx);
  // Slice: la (base), addi (pointer bump), the ld itself.  The checksum
  // add, the branch and the counter are not address-relevant... except the
  // counter feeds nothing in the address chain.
  for (const auto m : slice) {
    const auto op = p.code[m].op;
    EXPECT_TRUE(op == Opcode::LD || op == Opcode::ADDI ||
                op == Opcode::ADD)
        << "unexpected op in slice at " << m;
    EXPECT_FALSE(isa::is_store(op));
    EXPECT_FALSE(isa::is_control(op));
  }
  // The address-forming la/addi chain must be present.
  bool has_ld = false;
  for (const auto m : slice) has_ld |= p.code[m].op == Opcode::LD;
  EXPECT_TRUE(has_ld);
}

TEST(Cmas, ExtractMarksMembersAndTrigger) {
  auto p = assemble(kStridedMisses);
  CmasOptions opt;
  opt.trigger_distance = 50;
  const auto obs = profile_run(p, mem::MemConfig{}, opt.trigger_distance);
  const auto groups = extract_cmas(p, obs, opt);
  ASSERT_EQ(groups.size(), 1u);
  const auto& g = groups[0];
  EXPECT_FALSE(g.members.empty());
  EXPECT_GE(g.trigger, 0);
  EXPECT_TRUE(p.code[g.trigger].ann.is_trigger);
  EXPECT_EQ(p.code[g.trigger].ann.trigger_group, g.id);
  for (const auto m : g.members) {
    EXPECT_TRUE(p.code[m].ann.in_cmas);
    EXPECT_EQ(p.code[m].ann.cmas_group, g.id);
  }
}

TEST(Cmas, FpFedAddressChainsAreDropped) {
  // The load's address derives from CVTFI (floating point): the CMP cannot
  // pre-execute it, so no CMAS group may target this load.
  const auto src = R"(
.data
arr: .space 262144
st: .double 0.0
sc: .double 1.37
.text
_start:
  la   r4, arr
  li   r5, 3000
  fld  f1, st
  fld  f2, sc
loop:
  fadd f1, f1, f2
  cvtfi r6, f1
  slli r7, r6, 6
  andi r7, r7, 262143
  add  r8, r7, r4
  ld   r9, 0(r8)
  add  r10, r10, r9
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
  auto p = assemble(src);
  CmasOptions opt;
  opt.min_misses = 16;
  opt.miss_rate_threshold = 0.01;
  const auto obs = profile_run(p, mem::MemConfig{}, opt.trigger_distance);
  const auto groups = extract_cmas(p, obs, opt);
  for (const auto& g : groups)
    for (const auto t : g.targets)
      EXPECT_NE(p.code[t].op, Opcode::LD)
          << "FP-fed load must not become a CMAS target";
}

TEST(Compile, EndToEndProducesBothBinaries) {
  const auto p = assemble(kStridedMisses);
  CompileOptions opt;
  opt.cmas.min_misses = 64;
  const auto c = compile(p, opt);
  EXPECT_EQ(c.original.code.size(), p.code.size());
  EXPECT_GT(c.separated.code.size(), p.code.size());
  EXPECT_FALSE(c.groups.empty());
  EXPECT_EQ(c.access_count + c.compute_count, p.code.size());
  // CMAS annotations survive separation (travel with instructions).
  std::size_t cmas_in_sep = 0;
  for (const auto& inst : c.separated.code)
    cmas_in_sep += inst.ann.in_cmas ? 1 : 0;
  EXPECT_GT(cmas_in_sep, 0u);
}

TEST(Compile, CmasMembersAreWithinAccessStream) {
  // Paper §4.2: "the CMAS is a subset of the Access Stream".
  const auto c = compile(assemble(kStridedMisses));
  for (const auto& inst : c.separated.code)
    if (inst.ann.in_cmas) {
      EXPECT_EQ(inst.ann.stream, isa::Stream::Access);
    }
}

TEST(Compile, DisableCmasLeavesNoMarks)
{
  CompileOptions opt;
  opt.enable_cmas = false;
  const auto c = compile(assemble(kStridedMisses), opt);
  for (const auto& inst : c.original.code) {
    EXPECT_FALSE(inst.ann.in_cmas);
    EXPECT_FALSE(inst.ann.is_trigger);
  }
  EXPECT_TRUE(c.groups.empty());
}

}  // namespace
}  // namespace hidisc::compiler
