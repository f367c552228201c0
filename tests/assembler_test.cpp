// Assembler tests: syntax coverage, label resolution, directives, register
// aliases, pseudo-instructions, and error reporting.
#include <gtest/gtest.h>

#include <cstring>

#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"

namespace hidisc::isa {
namespace {

TEST(Assembler, BasicThreeRegForm) {
  const Program p = assemble("add r1, r2, r3\nhalt\n");
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0].op, Opcode::ADD);
  EXPECT_EQ(p.code[0].dst, ir(1));
  EXPECT_EQ(p.code[0].src1, ir(2));
  EXPECT_EQ(p.code[0].src2, ir(3));
  EXPECT_EQ(p.code[1].op, Opcode::HALT);
}

TEST(Assembler, ImmediateForms) {
  const Program p = assemble(
      "addi r1, r0, -42\n"
      "slli r2, r1, 3\n"
      "lui  r3, 0x12\n"
      "halt\n");
  EXPECT_EQ(p.code[0].imm, -42);
  EXPECT_EQ(p.code[1].imm, 3);
  EXPECT_EQ(p.code[2].imm, 0x12);
}

TEST(Assembler, MemoryOperands) {
  const Program p = assemble(
      ".data\n"
      "buf: .space 64\n"
      ".text\n"
      "ld r1, 8(r2)\n"
      "sw r3, -4(r4)\n"
      "ld r5, buf\n"
      "ld r6, buf+16\n"
      "pref 32(r7)\n"
      "halt\n");
  EXPECT_EQ(p.code[0].imm, 8);
  EXPECT_EQ(p.code[0].src1, ir(2));
  EXPECT_EQ(p.code[1].imm, -4);
  EXPECT_EQ(p.code[1].src2, ir(3));
  EXPECT_EQ(p.code[2].imm, static_cast<std::int64_t>(kDataBase));
  EXPECT_EQ(p.code[2].src1, kZero);
  EXPECT_EQ(p.code[3].imm, static_cast<std::int64_t>(kDataBase) + 16);
  EXPECT_EQ(p.code[4].op, Opcode::PREF);
  EXPECT_EQ(p.code[4].imm, 32);
}

TEST(Assembler, BranchesAndLabels) {
  const Program p = assemble(
      "_start: beq r1, r2, done\n"
      "loop:   addi r1, r1, 1\n"
      "        bne r1, r2, loop\n"
      "done:   halt\n");
  EXPECT_EQ(p.code[0].target, 3);
  EXPECT_EQ(p.code[2].target, 1);
  EXPECT_EQ(p.entry, 0);
  EXPECT_EQ(p.code_index("loop"), 1);
}

TEST(Assembler, ForwardAndBackwardLabelsAcrossSections) {
  const Program p = assemble(
      ".text\n"
      "ld r1, later\n"
      "halt\n"
      ".data\n"
      "early: .dword 1\n"
      "later: .dword 2\n");
  EXPECT_EQ(p.code[0].imm, static_cast<std::int64_t>(kDataBase) + 8);
}

TEST(Assembler, DataDirectives) {
  const Program p = assemble(
      ".data\n"
      "a: .byte 1, 2, 255\n"
      "   .align 2\n"
      "b: .half 0x1234\n"
      "   .align 4\n"
      "c: .word -1\n"
      "   .align 8\n"
      "d: .dword 0x123456789abcdef0\n"
      "e: .double 1.5\n"
      "f: .asciz \"hi\\n\"\n"
      ".text\n"
      "halt\n");
  EXPECT_EQ(p.data[0], 1);
  EXPECT_EQ(p.data[2], 255);
  const auto b_off = p.data_addr("b") - kDataBase;
  EXPECT_EQ(b_off % 2, 0u);
  EXPECT_EQ(p.data[b_off], 0x34);
  const auto d_off = p.data_addr("d") - kDataBase;
  EXPECT_EQ(d_off % 8, 0u);
  EXPECT_EQ(p.data[d_off], 0xf0);
  const auto e_off = p.data_addr("e") - kDataBase;
  double e_val;
  std::memcpy(&e_val, p.data.data() + e_off, 8);
  EXPECT_EQ(e_val, 1.5);
  const auto f_off = p.data_addr("f") - kDataBase;
  EXPECT_EQ(p.data[f_off], 'h');
  EXPECT_EQ(p.data[f_off + 2], '\n');
  EXPECT_EQ(p.data[f_off + 3], 0);
}

TEST(Assembler, RegisterAliases) {
  const Program p = assemble("add v0, a0, t3\nadd s1, sp, ra\nhalt\n");
  EXPECT_EQ(p.code[0].dst, ir(2));
  EXPECT_EQ(p.code[0].src1, ir(4));
  EXPECT_EQ(p.code[0].src2, ir(11));
  EXPECT_EQ(p.code[1].dst, ir(17));
  EXPECT_EQ(p.code[1].src1, ir(29));
  EXPECT_EQ(p.code[1].src2, ir(31));
}

TEST(Assembler, FpForms) {
  const Program p = assemble(
      "fadd f1, f2, f3\n"
      "fneg f4, f5\n"
      "cvtif f6, r7\n"
      "cvtfi r8, f9\n"
      "flt r10, f1, f2\n"
      "fld f11, 0(r12)\n"
      "fsd f11, 8(r12)\n"
      "halt\n");
  EXPECT_EQ(p.code[0].dst, fr(1));
  EXPECT_EQ(p.code[1].src1, fr(5));
  EXPECT_EQ(p.code[2].dst, fr(6));
  EXPECT_EQ(p.code[2].src1, ir(7));
  EXPECT_EQ(p.code[3].dst, ir(8));
  EXPECT_EQ(p.code[4].dst, ir(10));
  EXPECT_EQ(p.code[5].dst, fr(11));
  EXPECT_EQ(p.code[6].src2, fr(11));
}

TEST(Assembler, Pseudos) {
  const Program p = assemble(
      ".data\nbuf: .space 8\n.text\n"
      "la r1, buf\n"
      "li r2, 1000000000000\n"
      "mv r3, r4\n"
      "neg r5, r6\n"
      "not r7, r8\n"
      "b 0\n");
  EXPECT_EQ(p.code[0].op, Opcode::ADDI);
  EXPECT_EQ(p.code[0].imm, static_cast<std::int64_t>(kDataBase));
  EXPECT_EQ(p.code[1].imm, 1000000000000);
  EXPECT_EQ(p.code[2].op, Opcode::ADD);
  EXPECT_EQ(p.code[3].op, Opcode::SUB);
  EXPECT_EQ(p.code[4].op, Opcode::NOR);
  EXPECT_EQ(p.code[5].op, Opcode::J);
}

TEST(Assembler, QueueOps) {
  const Program p = assemble(
      "pushldq r1\npushldqf f2\npopldq r3\npopldqf f4\n"
      "pushsdq r5\npopsdq r6\nputeod\nbeod 0\ngetscq\nputscq\nhalt\n");
  EXPECT_EQ(p.code[0].src1, ir(1));
  EXPECT_EQ(p.code[1].src1, fr(2));
  EXPECT_EQ(p.code[2].dst, ir(3));
  EXPECT_EQ(p.code[3].dst, fr(4));
  EXPECT_EQ(p.code[7].target, 0);
}

TEST(Assembler, EntryDefaultsToZeroWithoutStart) {
  const Program p = assemble("nop\nhalt\n");
  EXPECT_EQ(p.entry, 0);
}

TEST(Assembler, EntryHonorsStartLabel) {
  const Program p = assemble("nop\n_start: halt\n");
  EXPECT_EQ(p.entry, 1);
}

TEST(AssemblerErrors, ReportLineNumbers) {
  try {
    (void)assemble("nop\nbogus r1\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(AssemblerErrors, Various) {
  EXPECT_THROW(assemble("add r1, r2\n"), AsmError);          // arity
  EXPECT_THROW(assemble("add r1, r2, f3\n"), AsmError);      // reg kind
  EXPECT_THROW(assemble("ld r1, 0(f2)\n"), AsmError);        // fp base
  EXPECT_THROW(assemble("beq r1, r2, nowhere\n"), AsmError); // label
  EXPECT_THROW(assemble("x: nop\nx: nop\n"), AsmError);      // dup label
  EXPECT_THROW(assemble("ld r1, 0(r2\n"), AsmError);         // paren
  EXPECT_THROW(assemble(".data\n.align 3\n"), AsmError);     // align pow2
  EXPECT_THROW(assemble("li r1, zzz\n"), AsmError);          // bad literal
  EXPECT_THROW(assemble(".text\n.space 4\n"), AsmError);     // data dir in text
}

TEST(Assembler, DisassembleReassembleFixpoint) {
  const char* src =
      ".data\nbuf: .space 128\n.text\n"
      "_start: la r4, buf\n"
      "  li r5, 16\n"
      "loop: ld r6, 0(r4)\n"
      "  add r7, r7, r6\n"
      "  addi r4, r4, 8\n"
      "  addi r5, r5, -1\n"
      "  bne r5, r0, loop\n"
      "  sd r7, buf\n"
      "  halt\n";
  const Program p1 = assemble(src);
  // Strip index prefixes from the listing to get assemblable text.
  std::string listing = disassemble(p1);
  std::string text;
  for (std::size_t pos = 0; pos < listing.size();) {
    auto end = listing.find('\n', pos);
    std::string line = listing.substr(pos, end - pos);
    const auto close = line.find("]  ");
    text += close == std::string::npos ? line : line.substr(close + 3);
    text += '\n';
    pos = end + 1;
  }
  const Program p2 = assemble(text);
  ASSERT_EQ(p1.code.size(), p2.code.size());
  for (std::size_t i = 0; i < p1.code.size(); ++i) {
    EXPECT_EQ(p1.code[i].op, p2.code[i].op) << i;
    EXPECT_EQ(p1.code[i].target, p2.code[i].target) << i;
    EXPECT_EQ(p1.code[i].imm, p2.code[i].imm) << i;
  }
}

}  // namespace
}  // namespace hidisc::isa
