// Property-based tests over randomly generated programs.
//
//  * Disassemble -> reassemble is the identity for every representable
//    instruction form.
//  * The HiDISC compiler's stream separation preserves functional
//    behaviour on randomly generated structured kernels (loops mixing
//    integer/FP compute with loads and stores), and all four machine
//    configurations retire exactly the dynamic instruction stream.
#include <gtest/gtest.h>

#include <random>

#include "compiler/compile.hpp"
#include "fuzz/generator.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc {
namespace {

using isa::Opcode;

// Random structured kernels come from the shared src/fuzz generator (the
// same one hifuzz drives); `generate` draws a per-seed feature mix, so
// these properties cover pointer chases, cross-stream flows, nested
// loops, divides and mixed-width memory — not just the flat op soup the
// tests originally embedded.
using fuzz::KernelGen;

class RandomKernel : public ::testing::TestWithParam<int> {};

TEST_P(RandomKernel, SeparationPreservesBehaviour) {
  KernelGen gen(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto src = gen.generate(/*body_ops=*/24, /*iterations=*/200);
  const auto prog = isa::assemble(src);

  const auto comp = compiler::compile(prog);
  sim::Functional f1(comp.original), f2(comp.separated);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest())
      << "separation changed behaviour for seed " << GetParam();

  // The flow-insensitive separator must agree too (ablation mode).
  compiler::CompileOptions fi;
  fi.flow_sensitive_comm = false;
  const auto comp2 = compiler::compile(prog, fi);
  sim::Functional f3(comp2.separated);
  f3.run();
  EXPECT_EQ(f1.memory().digest(), f3.memory().digest())
      << "flow-insensitive separation diverged for seed " << GetParam();
  EXPECT_GE(comp2.inserted_pops, comp.inserted_pops);
}

TEST_P(RandomKernel, StreamInvariantsHold) {
  KernelGen gen(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto prog = isa::assemble(gen.generate(24, 10));
  const auto sep = compiler::separate_streams(prog);
  for (const auto& inst : sep.separated.code) {
    if (isa::is_mem(inst.op) || isa::is_control(inst.op)) {
      EXPECT_EQ(inst.ann.stream, isa::Stream::Access)
          << isa::disassemble(inst);
    }
    if (isa::is_fp_compute(inst.op)) {
      EXPECT_EQ(inst.ann.stream, isa::Stream::Compute)
          << isa::disassemble(inst);
    }
  }
}

TEST_P(RandomKernel, AllPresetsRetireTheWholeTrace) {
  KernelGen gen(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const auto prog = isa::assemble(gen.generate(16, 100));
  const auto comp = compiler::compile(prog);
  for (const auto preset :
       {machine::Preset::Superscalar, machine::Preset::CPAP,
        machine::Preset::CPCMP, machine::Preset::HiDISC}) {
    const auto& bin = machine::uses_separated_binary(preset) ? comp.separated
                                                             : comp.original;
    sim::Functional f(bin);
    f.run();
    const auto r = machine::run_machine(bin, preset);
    EXPECT_EQ(r.instructions, f.instructions())
        << machine::preset_name(preset) << " seed " << GetParam();
    EXPECT_EQ(r.ldq.pushes, r.ldq.pops);
    EXPECT_EQ(r.sdq.pushes, r.sdq.pops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernel, ::testing::Range(0, 12));

// ---- disassemble -> reassemble identity -----------------------------------

class RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RoundTrip, DisassembleReassembleIdentity) {
  std::mt19937_64 gen(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  KernelGen kg(gen());
  const auto prog = isa::assemble(kg.generate(32, 1));
  for (const auto& inst : prog.code) {
    const std::string text = isa::disassemble(inst);
    // Strip any annotation comment before reassembling.
    const auto cut = text.find("  #");
    const auto p2 = isa::assemble(
        (cut == std::string::npos ? text : text.substr(0, cut)) + "\n");
    ASSERT_EQ(p2.code.size(), 1u) << text;
    EXPECT_EQ(p2.code[0].op, inst.op) << text;
    EXPECT_EQ(p2.code[0].dst, inst.dst) << text;
    EXPECT_EQ(p2.code[0].src1, inst.src1) << text;
    EXPECT_EQ(p2.code[0].src2, inst.src2) << text;
    EXPECT_EQ(p2.code[0].imm, inst.imm) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip, ::testing::Range(0, 4));

}  // namespace
}  // namespace hidisc
