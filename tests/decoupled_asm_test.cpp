// Hand-written decoupled assembly (the paper's Figure 3 style: explicit
// queue opcodes, EOD tokens, slip-control tokens) running on the timing
// machines, plus front-end paths that only procedure calls exercise
// (JAL/JR through the return-address stack).
#include <gtest/gtest.h>

#include "compiler/slicer.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc {
namespace {

using isa::Stream;

// Annotates a hand-written program: queue pushes/pops already explicit,
// so only the stream tags are needed.
isa::Program annotate_by_table(isa::Program prog,
                               const std::vector<Stream>& streams) {
  EXPECT_EQ(prog.code.size(), streams.size());
  for (std::size_t i = 0; i < prog.code.size(); ++i)
    prog.code[i].ann.stream = streams[i];
  return prog;
}

TEST(HandDecoupled, ProducerConsumerViaLdqOnTimingMachine) {
  // AP pushes 20 loaded values; CP pops and accumulates; AP signals EOD;
  // CP exits via BEOD.  The streams are tagged by hand.  (The batch must
  // fit in the 32-entry LDQ: with one in-order front end, a sequential
  // produce-everything-then-consume layout deadlocks past queue capacity —
  // see SequentialBatchBeyondQueueCapacityDeadlocks below.)
  const char* src = R"(
.data
vals: .space 800
out:  .space 8
.text
_start:
  la   r4, vals
  li   r5, 20
loop:
  ld   r6, 0(r4)
  pushldq r6
  addi r4, r4, 8
  addi r5, r5, -1
  bne  r5, r0, loop
  puteod
cp_entry:
  popldq r8
  add  r9, r9, r8
  beod done
  j    cp_entry
done:
  pushsdq r9
  popsdq r10
  la   r11, out
  sd   r10, 0(r11)
  halt
)";
  auto prog = isa::assemble(src);
  // Stream tags: the load loop + stores are AP work; pops + adds are CP.
  std::vector<Stream> tags(prog.code.size(), Stream::Access);
  const auto cp_entry = prog.code_index("cp_entry");
  const auto done = prog.code_index("done");
  for (std::int32_t i = cp_entry; i < done; ++i) tags[i] = Stream::Compute;
  tags[done] = Stream::Compute;  // pushsdq runs on the CP
  prog = annotate_by_table(prog, tags);

  // Functional result first.
  sim::Functional f(prog);
  f.run();
  const auto out = f.memory().read<std::uint64_t>(prog.data_addr("out"));
  EXPECT_EQ(out, 0u);  // vals is all zeros; the protocol matters, not data

  // And the same binary on the decoupled timing machine.
  const auto r = machine::run_machine(prog, machine::Preset::CPAP);
  EXPECT_EQ(r.instructions, f.instructions());
  EXPECT_EQ(r.ldq.pushes, r.ldq.pops);      // 20 values + 1 EOD
  EXPECT_EQ(r.ldq.pushes, 21u);
  EXPECT_EQ(r.sdq.pushes, 1u);
}

TEST(HandDecoupled, SequentialBatchBeyondQueueCapacityDeadlocks) {
  // Producing 100 values before any consumer instruction is fetched
  // overflows the 32-entry LDQ; with one in-order front end the machine
  // cannot make progress and the watchdog must catch it.  This is why the
  // compiler never emits such layouts (pushes and pops interleave under
  // one control flow).
  const char* src = R"(
.text
_start:
  li   r5, 100
produce:
  pushldq r5
  addi r5, r5, -1
  bne  r5, r0, produce
consume:
  li   r6, 100
drain:
  popldq r7
  addi r6, r6, -1
  bne  r6, r0, drain
  halt
)";
  auto prog = isa::assemble(src);
  std::vector<Stream> tags(prog.code.size(), Stream::Access);
  const auto consume = prog.code_index("consume");
  for (std::size_t i = consume; i + 1 < prog.code.size(); ++i)
    tags[i] = Stream::Compute;
  prog = annotate_by_table(prog, tags);
  sim::Functional f(prog);
  f.run();
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 20'000;
  machine::Machine m(prog, machine::Preset::CPAP, cfg);
  EXPECT_THROW((void)m.run(), std::runtime_error);
}

TEST(HandDecoupled, BeodFallthroughKeepsDataQueued) {
  // BEOD with a data entry at the head must not consume it.
  const char* src = R"(
.text
_start:
  li   r1, 42
  pushldq r1
  beod never
  popldq r2
  halt
never:
  li   r2, 0
  halt
)";
  auto prog = isa::assemble(src);
  for (auto& inst : prog.code) inst.ann.stream = Stream::Access;
  prog.code[3].ann.stream = Stream::Compute;  // popldq on the CP
  prog.code[2].ann.stream = Stream::Compute;  // beod on the CP
  sim::Functional f(prog);
  f.run();
  EXPECT_EQ(f.reg(2), 42);
  const auto r = machine::run_machine(prog, machine::Preset::CPAP);
  EXPECT_EQ(r.instructions, f.instructions());
}

TEST(HandDecoupled, ScqTokensThrottleOnTimingMachine) {
  // CMP-style producer puts slip tokens, AP-style consumer gets them.
  const char* src = R"(
.text
_start:
  li   r5, 50
loop:
  putscq
  getscq
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
  auto prog = isa::assemble(src);
  for (auto& inst : prog.code) inst.ann.stream = Stream::Access;
  prog.code[1].ann.stream = Stream::Compute;  // putscq from the other side
  sim::Functional f(prog);
  f.run();
  const auto r = machine::run_machine(prog, machine::Preset::CPAP);
  EXPECT_EQ(r.instructions, f.instructions());
  EXPECT_EQ(r.scq.pushes, 50u);
  EXPECT_EQ(r.scq.pops, 50u);
}

TEST(Calls, JalJrThroughRasOnTimingMachine) {
  // Nested calls: the RAS should predict the returns, so mispredict counts
  // stay near zero.
  const char* src = R"(
.text
_start:
  li   r5, 200
loop:
  jal  outer
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
outer:
  mv   r10, ra
  jal  inner
  mv   ra, r10
  jr   ra
inner:
  addi r6, r6, 1
  jr   ra
)";
  const auto prog = isa::assemble(src);
  sim::Functional f(prog);
  f.run();
  EXPECT_EQ(f.reg(6), 200);
  const auto r = machine::run_machine(prog, machine::Preset::Superscalar);
  EXPECT_EQ(r.instructions, f.instructions());
  // Loop branch may mispredict at the boundary; returns should not.
  EXPECT_LT(r.branch.mispredicts, 10u);
}

TEST(Calls, CorruptedReturnPredictsWrongButExecutesRight) {
  // An indirect jump the RAS cannot know: prediction misses, semantics
  // hold.
  const char* src = R"(
.text
_start:
  li   r5, 30
loop:
  la   r1, target
  jr   r1
target:
  addi r6, r6, 1
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
  const auto prog = isa::assemble(src);
  sim::Functional f(prog);
  f.run();
  EXPECT_EQ(f.reg(6), 30);
  const auto r = machine::run_machine(prog, machine::Preset::Superscalar);
  EXPECT_EQ(r.instructions, f.instructions());
  EXPECT_GT(r.fetch_stall_branch_cycles, 0u);  // unpredicted jr redirects
}

}  // namespace
}  // namespace hidisc
