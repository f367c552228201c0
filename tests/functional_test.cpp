// Functional simulator tests: per-opcode semantics, control flow, memory,
// queue operations, traces, and error paths.
#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <memory>
#include <string>

#include "isa/assembler.hpp"
#include "sim/functional.hpp"

namespace hidisc::sim {
namespace {

using isa::assemble;

// Runs `body` (which must end with halt) and returns the simulator.
Functional run(const std::string& src) {
  static std::vector<isa::Program> keep_alive;  // Functional holds a ref
  keep_alive.push_back(assemble(src));
  Functional f(keep_alive.back());
  f.run();
  return f;
}

TEST(Functional, IntArithmetic) {
  const auto f = run(
      "li r1, 7\nli r2, -3\n"
      "add r3, r1, r2\n"
      "sub r4, r1, r2\n"
      "mul r5, r1, r2\n"
      "div r6, r1, r2\n"
      "rem r7, r1, r2\n"
      "halt\n");
  EXPECT_EQ(f.reg(3), 4);
  EXPECT_EQ(f.reg(4), 10);
  EXPECT_EQ(f.reg(5), -21);
  EXPECT_EQ(f.reg(6), -2);  // truncating division
  EXPECT_EQ(f.reg(7), 1);
}

TEST(Functional, MulWrapsModulo64) {
  const auto f = run(
      "li r1, 0x9e3779b97f4a7c15\n"
      "li r2, 0x9e3779b97f4a7c15\n"
      "mul r3, r1, r2\nhalt\n");
  const std::uint64_t expect = 0x9e3779b97f4a7c15ull * 0x9e3779b97f4a7c15ull;
  EXPECT_EQ(static_cast<std::uint64_t>(f.reg(3)), expect);
}

TEST(Functional, LogicAndShifts) {
  const auto f = run(
      "li r1, 0xf0\nli r2, 0x0f\n"
      "and r3, r1, r2\n"
      "or  r4, r1, r2\n"
      "xor r5, r1, r2\n"
      "nor r6, r1, r2\n"
      "li r7, -8\n"
      "srai r8, r7, 1\n"
      "srli r9, r7, 60\n"
      "slli r10, r2, 4\n"
      "halt\n");
  EXPECT_EQ(f.reg(3), 0x00);
  EXPECT_EQ(f.reg(4), 0xff);
  EXPECT_EQ(f.reg(5), 0xff);
  EXPECT_EQ(f.reg(6), ~std::int64_t{0xff});
  EXPECT_EQ(f.reg(8), -4);
  EXPECT_EQ(f.reg(9), 15);
  EXPECT_EQ(f.reg(10), 0xf0);
}

TEST(Functional, Comparisons) {
  const auto f = run(
      "li r1, -1\nli r2, 1\n"
      "slt r3, r1, r2\n"
      "sltu r4, r1, r2\n"   // -1 is huge unsigned
      "slti r5, r1, 0\n"
      "halt\n");
  EXPECT_EQ(f.reg(3), 1);
  EXPECT_EQ(f.reg(4), 0);
  EXPECT_EQ(f.reg(5), 1);
}

TEST(Functional, R0IsHardwiredZero) {
  const auto f = run("li r0, 55\nadd r0, r0, r0\nhalt\n");
  EXPECT_EQ(f.reg(0), 0);
}

TEST(Functional, FpArithmetic) {
  const auto f = run(
      ".data\na: .double 3.5\nb: .double -2.0\n.text\n"
      "fld f1, a\nfld f2, b\n"
      "fadd f3, f1, f2\n"
      "fsub f4, f1, f2\n"
      "fmul f5, f1, f2\n"
      "fdiv f6, f1, f2\n"
      "fneg f7, f2\n"
      "fabs f8, f2\n"
      "fmin f9, f1, f2\n"
      "fmax f10, f1, f2\n"
      "halt\n");
  EXPECT_EQ(f.freg(3), 1.5);
  EXPECT_EQ(f.freg(4), 5.5);
  EXPECT_EQ(f.freg(5), -7.0);
  EXPECT_EQ(f.freg(6), -1.75);
  EXPECT_EQ(f.freg(7), 2.0);
  EXPECT_EQ(f.freg(8), 2.0);
  EXPECT_EQ(f.freg(9), -2.0);
  EXPECT_EQ(f.freg(10), 3.5);
}

TEST(Functional, FpConversionAndCompare) {
  const auto f = run(
      "li r1, -7\n"
      "cvtif f1, r1\n"
      "cvtfi r2, f1\n"
      ".data\nc: .double 2.75\n.text\n"
      "fld f2, c\n"
      "cvtfi r3, f2\n"        // truncates toward zero
      "feq r4, f1, f1\n"
      "flt r5, f1, f2\n"
      "fle r6, f2, f1\n"
      "halt\n");
  EXPECT_EQ(f.freg(1), -7.0);
  EXPECT_EQ(f.reg(2), -7);
  EXPECT_EQ(f.reg(3), 2);
  EXPECT_EQ(f.reg(4), 1);
  EXPECT_EQ(f.reg(5), 1);
  EXPECT_EQ(f.reg(6), 0);
}

TEST(Functional, LoadStoreWidthsAndSignedness) {
  const auto f = run(
      ".data\nbuf: .space 32\n.text\n"
      "la r1, buf\n"
      "li r2, -2\n"
      "sb r2, 0(r1)\n"
      "lb r3, 0(r1)\n"
      "lbu r4, 0(r1)\n"
      "sh r2, 8(r1)\n"
      "lh r5, 8(r1)\n"
      "lhu r6, 8(r1)\n"
      "sw r2, 16(r1)\n"
      "lw r7, 16(r1)\n"
      "lwu r8, 16(r1)\n"
      "sd r2, 24(r1)\n"
      "ld r9, 24(r1)\n"
      "halt\n");
  EXPECT_EQ(f.reg(3), -2);
  EXPECT_EQ(f.reg(4), 0xfe);
  EXPECT_EQ(f.reg(5), -2);
  EXPECT_EQ(f.reg(6), 0xfffe);
  EXPECT_EQ(f.reg(7), -2);
  EXPECT_EQ(f.reg(8), 0xfffffffe);
  EXPECT_EQ(f.reg(9), -2);
}

TEST(Functional, ControlFlowLoop) {
  const auto f = run(
      "li r1, 0\nli r2, 10\n"
      "loop: addi r1, r1, 1\n"
      "bne r1, r2, loop\n"
      "halt\n");
  EXPECT_EQ(f.reg(1), 10);
  EXPECT_EQ(f.instructions(), 2 + 2 * 10 + 1);
}

TEST(Functional, JalAndJr) {
  const auto f = run(
      "_start: jal sub\n"
      "li r2, 99\n"
      "halt\n"
      "sub: li r1, 42\n"
      "jr ra\n");
  EXPECT_EQ(f.reg(1), 42);
  EXPECT_EQ(f.reg(2), 99);
}

TEST(Functional, PrefetchHasNoArchitecturalEffect) {
  const auto f = run(
      ".data\nbuf: .dword 77\n.text\n"
      "la r1, buf\npref 0(r1)\nld r2, 0(r1)\nhalt\n");
  EXPECT_EQ(f.reg(2), 77);
}

TEST(Functional, QueueRoundTripAndEod) {
  const auto f = run(
      "li r1, 5\n"
      "pushldq r1\n"
      "puteod\n"
      "popldq r2\n"          // data passes through, EOD stays behind
      "beod end\n"           // consumes EOD, branches
      "li r3, 111\n"         // skipped
      "end: halt\n");
  EXPECT_EQ(f.reg(2), 5);
  EXPECT_EQ(f.reg(3), 0);
}

TEST(Functional, BeodPutsDataBack) {
  const auto f = run(
      "li r1, 5\n"
      "pushldq r1\n"
      "beod end\n"           // head is data: falls through, keeps entry
      "popldq r2\n"
      "end: halt\n");
  EXPECT_EQ(f.reg(2), 5);
}

TEST(Functional, SdqAndScq) {
  const auto f = run(
      "li r1, 9\npushsdq r1\npopsdq r2\n"
      "putscq\ngetscq\nhalt\n");
  EXPECT_EQ(f.reg(2), 9);
}

TEST(Functional, AnnotationPushesFeedPops) {
  // Simulates compiler output: a load with push_ldq, then POPLDQ.
  auto prog = assemble(
      ".data\nv: .dword 1234\n.text\n"
      "ld r1, v\n"
      "popldq r2\n"
      "halt\n");
  prog.code[0].ann.push_ldq = true;
  Functional f(prog);
  f.run();
  EXPECT_EQ(f.reg(1), 1234);
  EXPECT_EQ(f.reg(2), 1234);
}

TEST(FunctionalErrors, DivideByZero) {
  auto prog = assemble("li r1, 1\ndiv r2, r1, r0\nhalt\n");
  Functional f(prog);
  EXPECT_THROW(f.run(), ExecError);
}

TEST(FunctionalErrors, QueueUnderflow) {
  auto prog = assemble("popldq r1\nhalt\n");
  Functional f(prog);
  EXPECT_THROW(f.run(), ExecError);
}

TEST(FunctionalErrors, ScqUnderflow) {
  auto prog = assemble("getscq\nhalt\n");
  Functional f(prog);
  EXPECT_THROW(f.run(), ExecError);
}

TEST(FunctionalErrors, StepBudget) {
  auto prog = assemble("loop: j loop\nhalt\n");
  Functional f(prog);
  EXPECT_THROW(f.run(1000), ExecError);
}

TEST(FunctionalErrors, PcOutOfRange) {
  auto prog = assemble("li r1, 100\njr r1\nhalt\n");
  Functional f(prog);
  EXPECT_THROW(f.run(), ExecError);
}

TEST(Functional, TraceRecordsPathAddressesAndValues) {
  auto prog = assemble(
      ".data\nbuf: .dword 5\n.text\n"
      "la r1, buf\n"      // 0
      "ld r2, 0(r1)\n"    // 1
      "beq r2, r0, end\n" // 2 (not taken)
      "addi r3, r2, 1\n"  // 3
      "end: halt\n");     // 4
  Functional f(prog);
  const Trace t = f.run_trace();
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0].static_idx, 0);
  EXPECT_EQ(t[1].addr, isa::kDataBase);
  EXPECT_EQ(t[1].value, 5);
  EXPECT_EQ(t[2].static_idx, 2);
  EXPECT_EQ(t[2].next, 3);  // fall-through
  EXPECT_EQ(t[3].value, 6);
}

TEST(Functional, TraceOfTakenBranchRecordsTarget) {
  auto prog = assemble(
      "li r1, 1\n"
      "bne r1, r0, skip\n"
      "li r2, 7\n"
      "skip: halt\n");
  Functional f(prog);
  const Trace t = f.run_trace();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1].next, 3);
}

TEST(Functional, StateDigestDetectsDifferences) {
  auto p1 = assemble("li r1, 1\nhalt\n");
  auto p2 = assemble("li r1, 2\nhalt\n");
  Functional f1(p1), f2(p2);
  f1.run();
  f2.run();
  EXPECT_NE(f1.state_digest(), f2.state_digest());
}

TEST(Functional, SameArchStateIsExact) {
  // Equal outcomes compare equal; one register, one FP sign bit (-0 and +0
  // are == as doubles) or one memory word apart does not.
  const auto one = assemble("li r1, 1\ncvtif f1, r0\nhalt\n");
  const auto two = assemble("li r1, 2\ncvtif f1, r0\nhalt\n");
  const auto neg = assemble("li r1, 1\ncvtif f1, r0\nfneg f1, f1\nhalt\n");
  const auto st3 = assemble(
      ".data\nb: .space 8\n.text\nli r2, 3\nsd r2, b\nli r2, 0\nhalt\n");
  const auto st4 = assemble(
      ".data\nb: .space 8\n.text\nli r2, 4\nsd r2, b\nli r2, 0\nhalt\n");
  Functional a(one), a2(one), b(two), n(neg), s3(st3), s3b(st3), s4(st4);
  for (auto* f : {&a, &a2, &b, &n, &s3, &s3b, &s4}) f->run();
  EXPECT_TRUE(a.same_arch_state(a2));
  EXPECT_FALSE(a.same_arch_state(b));
  ASSERT_EQ(n.freg(1), a.freg(1));
  EXPECT_FALSE(a.same_arch_state(n));
  EXPECT_TRUE(s3.same_arch_state(s3b));
  EXPECT_FALSE(s3.same_arch_state(s4));
  EXPECT_NE(s3.state_digest(), s4.state_digest());
}

TEST(Functional, SameArchStateComparesQueues) {
  // Runs that differ only by an unconsumed LDQ/SDQ entry (its presence,
  // value or tag) or an SCQ token end in different states.
  std::deque<isa::Program> progs;  // each run's program outlives it
  const auto ends = [&](const std::string& body) {
    progs.push_back(assemble("li r1, 1\n" + body + "li r1, 0\nhalt\n"));
    auto f = std::make_unique<Functional>(progs.back());
    f->run();
    return f;
  };
  const auto ldq1 = ends("pushldq r1\n");
  EXPECT_TRUE(ldq1->same_arch_state(*ends("pushldq r1\n")));
  for (const char* other : {"nop\n", "pushldq r0\n", "pushldqf f0\n",
                            "puteod\n", "pushsdq r1\n", "putscq\n"})
    EXPECT_FALSE(ldq1->same_arch_state(*ends(other))) << other;
  EXPECT_FALSE(ends("pushldq r0\n")->same_arch_state(*ends("pushldqf f0\n")));
  EXPECT_FALSE(ends("pushldq r0\n")->same_arch_state(*ends("puteod\n")));
  const auto none = ends("nop\n");
  EXPECT_FALSE(none->same_arch_state(*ends("pushsdq r1\n")));
  EXPECT_FALSE(none->same_arch_state(*ends("putscq\n")));
  EXPECT_TRUE(none->same_arch_state(*ends("putscq\ngetscq\n")));
}

TEST(Functional, MemoryDigestMatchesForEqualEffects) {
  auto p1 = assemble(".data\nb: .space 8\n.text\nli r1, 3\nsd r1, b\nhalt\n");
  auto p2 = assemble(
      ".data\nb: .space 8\n.text\nli r1, 1\naddi r1, r1, 2\nsd r1, b\nhalt\n");
  Functional f1(p1), f2(p2);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
}

}  // namespace
}  // namespace hidisc::sim
