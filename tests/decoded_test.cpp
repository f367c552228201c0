// Decoder and threaded-interpreter coverage (docs/FUNCTIONAL.md):
//
//  * per-opcode golden tests: every `DecodedOp` field round-trips the
//    `isa::` encoding, including the commit-class dst rules (r0 sink, f0
//    writable, kind-mismatched destinations) and the pre-shifted LUI
//    immediate;
//  * dual-interpreter property: every corpus kernel and test-scale paper
//    workload, and a jump into the middle of a straight-line run, produce
//    byte-identical traces under the threaded and the reference switch
//    interpreters;
//  * interrupted step budgets: expiry at every point of a loop leaves
//    behaviour identical to the reference, and step() resumes from the
//    partial state;
//  * streamed runs: for every chunk size, the concatenated chunks of a
//    stream_chunk() loop equal run_trace() byte for byte, errors included.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "fuzz/corpus.hpp"
#include "isa/assembler.hpp"
#include "sim/decoded.hpp"
#include "sim/functional.hpp"
#include "workloads/common.hpp"

#ifndef HIDISC_CORPUS_DIR
#error "HIDISC_CORPUS_DIR must point at tests/corpus"
#endif

namespace hidisc::sim {
namespace {

using isa::Opcode;

// Commit class expected of each opcode — stated independently of the
// decoder so the table below is a second spelling of the reference
// interpreter's wr()/wf() usage, not a mirror of decoded.cpp.
enum class Want { None, Int, Fp };

Want want_commit(Opcode op) {
  switch (op) {
    // Int ALU / compares / int immediates.
    case Opcode::ADD: case Opcode::SUB: case Opcode::MUL: case Opcode::DIV:
    case Opcode::REM: case Opcode::AND: case Opcode::OR: case Opcode::XOR:
    case Opcode::NOR: case Opcode::SLL: case Opcode::SRL: case Opcode::SRA:
    case Opcode::SLT: case Opcode::SLTU: case Opcode::ADDI: case Opcode::ANDI:
    case Opcode::ORI: case Opcode::XORI: case Opcode::SLLI: case Opcode::SRLI:
    case Opcode::SRAI: case Opcode::SLTI: case Opcode::LUI:
    // FP-to-int results.
    case Opcode::CVTFI: case Opcode::FEQ: case Opcode::FLT: case Opcode::FLE:
    // Int loads, links, int queue pops.
    case Opcode::LB: case Opcode::LBU: case Opcode::LH: case Opcode::LHU:
    case Opcode::LW: case Opcode::LWU: case Opcode::LD:
    case Opcode::JAL: case Opcode::JALR:
    case Opcode::POPLDQ: case Opcode::POPSDQ:
      return Want::Int;
    case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL: case Opcode::FDIV:
    case Opcode::FSQRT: case Opcode::FMIN: case Opcode::FMAX:
    case Opcode::FNEG: case Opcode::FABS: case Opcode::FMOV:
    case Opcode::CVTIF: case Opcode::FLD:
    case Opcode::POPLDQF: case Opcode::POPSDQF:
      return Want::Fp;
    default:
      // Stores (including FSD), branches, jumps without link, queue pushes,
      // EOD/SCQ tokens, PREF, HALT, NOP: no register commit.
      return Want::None;
  }
}

DecodedOp decode_single(const isa::Instruction& inst) {
  isa::Program p;
  p.code.push_back(inst);
  return decode_program(p).at(0);
}

TEST(DecodedGolden, KindIsTheOpcodeOrdinal) {
  for (int o = 0; o < static_cast<int>(Opcode::kCount); ++o) {
    isa::Instruction inst;
    inst.op = static_cast<Opcode>(o);
    EXPECT_EQ(decode_single(inst).kind, o)
        << isa::op_info(inst.op).name;
  }
  isa::Instruction bad;
  bad.op = Opcode::kCount;
  EXPECT_EQ(decode_single(bad).kind, kExecInvalid);
}

TEST(DecodedGolden, OperandFieldsRoundTrip) {
  for (int o = 0; o < static_cast<int>(Opcode::kCount); ++o) {
    const auto op = static_cast<Opcode>(o);
    isa::Instruction inst;
    inst.op = op;
    inst.src1 = want_commit(op) == Want::Fp ? isa::fr(7) : isa::ir(7);
    inst.src2 = isa::ir(11);
    inst.imm = 0x1234;
    inst.target = 3;
    const DecodedOp d = decode_single(inst);
    EXPECT_EQ(d.src1, 7) << isa::op_info(op).name;
    EXPECT_EQ(d.src2, 11) << isa::op_info(op).name;
    EXPECT_EQ(d.target, 3) << isa::op_info(op).name;
    if (op == Opcode::LUI)
      EXPECT_EQ(d.imm, std::int64_t{0x1234} << 16);
    else
      EXPECT_EQ(d.imm, 0x1234) << isa::op_info(op).name;
    EXPECT_EQ(d.flags, 0) << isa::op_info(op).name;
  }
}

TEST(DecodedGolden, DstFollowsTheCommitClass) {
  for (int o = 0; o < static_cast<int>(Opcode::kCount); ++o) {
    const auto op = static_cast<Opcode>(o);
    const char* name = isa::op_info(op).name.data();
    isa::Instruction inst;
    inst.op = op;
    switch (want_commit(op)) {
      case Want::Int:
        inst.dst = isa::ir(5);
        EXPECT_EQ(decode_single(inst).dst, 5) << name;
        // r0 is hardwired zero: commits to the sink slot.
        inst.dst = isa::ir(0);
        EXPECT_EQ(decode_single(inst).dst, kSinkReg) << name;
        // A kind-mismatched destination never receives the int result.
        inst.dst = isa::fr(5);
        EXPECT_EQ(decode_single(inst).dst, kSinkReg) << name;
        break;
      case Want::Fp:
        inst.dst = isa::fr(5);
        EXPECT_EQ(decode_single(inst).dst, 5) << name;
        // f0 is writable, unlike r0.
        inst.dst = isa::fr(0);
        EXPECT_EQ(decode_single(inst).dst, 0) << name;
        inst.dst = isa::ir(5);
        EXPECT_EQ(decode_single(inst).dst, kSinkReg) << name;
        break;
      case Want::None:
        inst.dst = isa::ir(5);
        EXPECT_EQ(decode_single(inst).dst, kSinkReg) << name;
        inst.dst = isa::fr(5);
        EXPECT_EQ(decode_single(inst).dst, kSinkReg) << name;
        break;
    }
  }
}

TEST(DecodedGolden, AnnotationPushFlags) {
  isa::Instruction inst;
  inst.op = Opcode::ADD;
  EXPECT_EQ(decode_single(inst).flags, 0);
  inst.ann.push_ldq = true;
  EXPECT_EQ(decode_single(inst).flags, kFlagPushLdq);
  inst.ann.push_sdq = true;
  EXPECT_EQ(decode_single(inst).flags, kFlagPushLdq | kFlagPushSdq);
  inst.ann.push_ldq = false;
  EXPECT_EQ(decode_single(inst).flags, kFlagPushSdq);
}

// ---------------------------------------------------------------------------
// Dual-interpreter property.

// Runs a program through both interpreters and asserts byte-identical
// traces, outcomes and final state.  Returns the threaded trace.
Trace expect_interpreters_agree(const isa::Program& prog,
                                std::uint64_t max_steps =
                                    Functional::kDefaultMaxSteps) {
  Functional ft(prog);
  bool t_ok = true;
  std::string t_err;
  Trace t;
  try {
    t = ft.run_trace(max_steps);
  } catch (const ExecError& e) {
    t_ok = false;
    t_err = e.what();
  }
  Functional fr(prog);
  bool r_ok = true;
  std::string r_err;
  Trace r;
  try {
    r = fr.run_trace_ref(max_steps);
  } catch (const ExecError& e) {
    r_ok = false;
    r_err = e.what();
  }
  EXPECT_EQ(t_ok, r_ok) << t_err << " / " << r_err;
  EXPECT_EQ(t_err, r_err);
  EXPECT_EQ(t.size(), r.size());
  if (t.size() == r.size() && !t.empty()) {
    EXPECT_EQ(std::memcmp(t.data(), r.data(), t.size() * sizeof(TraceEntry)),
              0);
  }
  EXPECT_EQ(ft.instructions(), fr.instructions());
  EXPECT_EQ(ft.pc(), fr.pc());
  EXPECT_EQ(ft.halted(), fr.halted());
  EXPECT_EQ(ft.state_digest(), fr.state_digest());
  return t;
}

TEST(DualInterpreter, CorpusKernelsProduceIdenticalTraces) {
  const auto corpus = fuzz::load_corpus(HIDISC_CORPUS_DIR);
  ASSERT_FALSE(corpus.empty());
  for (const auto& r : corpus) {
    isa::Program prog;
    try {
      prog = isa::assemble(r.source);
    } catch (const std::exception&) {
      continue;  // assembly failures are corpus_test's concern
    }
    SCOPED_TRACE(r.name);
    expect_interpreters_agree(prog, /*max_steps=*/8'000'000);
  }
}

TEST(DualInterpreter, PaperWorkloadsProduceIdenticalTraces) {
  for (const auto& w : workloads::paper_suite(workloads::Scale::Test)) {
    SCOPED_TRACE(w.name);
    const auto comp = compiler::compile(w.program);
    const Trace to = expect_interpreters_agree(comp.original);
    EXPECT_FALSE(to.empty());
    const Trace ts = expect_interpreters_agree(comp.separated);
    EXPECT_FALSE(ts.empty());
  }
}

TEST(DualInterpreter, JumpIntoAStraightLineRunMatchesReference) {
  // The jump lands on the second of two consecutive addis; the run must
  // match the reference byte for byte.  r1 passes the bne with odd values
  // (1, 3, ..., 21), so the bound is odd.
  const auto prog = isa::assemble(
      "  li r2, 21\n"
      "  j mid\n"
      "loop:\n"
      "  addi r1, r1, 1\n"
      "mid:\n"
      "  addi r1, r1, 1\n"
      "  bne r1, r2, loop\n"
      "  halt\n");
  const Trace t = expect_interpreters_agree(prog);
  EXPECT_FALSE(t.empty());
}

TEST(DualInterpreter, NaNResultsCommitAsTheCanonicalQuietNaN) {
  // IEEE 754 leaves NaN payload propagation open and x86 resolves it by
  // machine-operand order, so `+qNaN + -qNaN` compiled in two different
  // contexts can yield either sign bit.  HISA pins every NaN-capable
  // arithmetic result to canon_nan (docs/FUNCTIONAL.md); assert the exact
  // trace bytes, not just inter-interpreter agreement (found by the fuzz
  // campaign as sig fsim-div:original, seed 4571229358325483140).
  const auto prog = isa::assemble(
      ".data\n"
      "k: .double 0.0, 1.0, -1.0\n"
      ".text\n"
      "  la r6, k\n"
      "  fld f1, 0(r6)\n"
      "  fld f2, 8(r6)\n"
      "  fld f3, 16(r6)\n"
      "  fdiv f4, f1, f1\n"    // 0/0 -> NaN
      "  fneg f5, f4\n"        // opposite-sign NaN (bit op)
      "  fadd f6, f4, f5\n"    // NaN+NaN, both operand orders
      "  fadd f7, f5, f4\n"
      "  fmin f8, f4, f5\n"
      "  fmax f9, f5, f4\n"
      "  fsqrt f10, f3\n"      // sqrt(-1) -> NaN
      "  fdiv f11, f2, f1\n"   // 1/0 -> +inf
      "  fsub f12, f11, f11\n" // inf-inf -> NaN
      "  fmul f13, f1, f11\n"  // 0*inf -> NaN
      "  halt\n");
  const Trace t = expect_interpreters_agree(prog);
  const auto canon =
      std::bit_cast<std::int64_t>(std::numeric_limits<double>::quiet_NaN());
  std::size_t nans = 0;
  for (const auto& e : t) {
    const Opcode op = prog.code[static_cast<std::size_t>(e.static_idx)].op;
    if (op == Opcode::FNEG || op == Opcode::FLD) continue;  // payload ops
    if (std::isnan(std::bit_cast<double>(e.value))) {
      EXPECT_EQ(e.value, canon) << "entry " << e.static_idx;
      ++nans;
    }
  }
  // fdiv(0/0), both fadds, fmin, fmax, fsqrt, fsub, fmul -- the 1/0 fdiv
  // yields +inf, not NaN.
  EXPECT_EQ(nans, 8u);
}

TEST(DualInterpreter, MinMaxOfOppositeZerosOrderMinusZeroFirst) {
  // C lets fmin(+0, -0) return either zero; a Debug build's reference
  // interpreter returned +0 where the threaded one returned -0 (found by
  // the fuzz campaign as sig fsim-div:original, seed 6280598950732548470).
  // fp_min/fp_max pin -0 < +0 in both operand orders.
  const auto prog = isa::assemble(
      ".data\n"
      "k: .double 0.0\n"
      ".text\n"
      "  la r6, k\n"
      "  fld f1, 0(r6)\n"
      "  fneg f2, f1\n"
      "  fmin f3, f1, f2\n"
      "  fmin f4, f2, f1\n"
      "  fmax f5, f1, f2\n"
      "  fmax f6, f2, f1\n"
      "  halt\n");
  expect_interpreters_agree(prog);
  Functional f(prog);
  f.run();
  EXPECT_TRUE(std::signbit(f.freg(3)));
  EXPECT_TRUE(std::signbit(f.freg(4)));
  EXPECT_FALSE(std::signbit(f.freg(5)));
  EXPECT_FALSE(std::signbit(f.freg(6)));
}

// ---------------------------------------------------------------------------
// Interrupted step budgets.

TEST(Budget, ExpiryAtEveryPointOfAFusedLoopMatchesReference) {
  // Budgets 0..31 expire on every instruction of the loop body, before
  // and after the back-edge, and each must leave exactly the reference's
  // partial state behind.
  const auto prog = isa::assemble(
      "  li r1, 0\n"
      "  li r2, 1000\n"
      "loop:\n"
      "  addi r1, r1, 1\n"
      "  bne r1, r2, loop\n"
      "  halt\n");
  for (std::uint64_t budget = 0; budget < 32; ++budget) {
    SCOPED_TRACE(budget);
    expect_interpreters_agree(prog, budget);
  }
}

TEST(Budget, StepResumesFromThreadedPartialState) {
  const auto prog = isa::assemble(
      "  li r1, 0\n"
      "  li r2, 50\n"
      "loop:\n"
      "  addi r1, r1, 1\n"
      "  bne r1, r2, loop\n"
      "  halt\n");
  // Exhaust an odd budget through the threaded path, then single-step the
  // reference interpreter to completion from the partial state.
  Functional f(prog);
  EXPECT_THROW(f.run(/*max_steps=*/7), ExecError);
  EXPECT_EQ(f.instructions(), 7u);
  while (f.step()) {
  }
  EXPECT_TRUE(f.halted());
  Functional whole(prog);
  whole.run();
  EXPECT_EQ(f.instructions(), whole.instructions());
  EXPECT_EQ(f.state_digest(), whole.state_digest());
}

TEST(Budget, ExactBudgetCompletesAndEmitsIdenticalTraces) {
  const auto prog = isa::assemble(
      "  li r1, 0\n"
      "  li r2, 4\n"
      "loop:\n"
      "  addi r1, r1, 1\n"
      "  bne r1, r2, loop\n"
      "  halt\n");
  Functional count(prog);
  count.run();
  const std::uint64_t exact = count.instructions();
  expect_interpreters_agree(prog, exact);      // completes on the last step
  expect_interpreters_agree(prog, exact - 1);  // throws on both paths
}

// ---------------------------------------------------------------------------
// Streamed runs.

constexpr std::size_t kChunkSizes[] = {1, 2, 3, 5, Functional::kStreamChunk};

// Runs `prog` streamed in `chunk`-entry chunks and checks it against
// run_trace() on a fresh Functional: the concatenated chunks equal its
// trace byte for byte (or, when the run fails, the reference interpreter's
// prefix up to the failing chunk), with the same error text at the same
// instructions() and the same final state.  Returns the error text.
std::string expect_streamed_matches(
    const isa::Program& prog, std::size_t chunk,
    std::uint64_t max_steps = Functional::kDefaultMaxSteps) {
  SCOPED_TRACE("chunk " + std::to_string(chunk));
  Functional whole(prog);
  Trace want;
  std::string want_err;
  try {
    want = whole.run_trace(max_steps);
  } catch (const ExecError& e) {
    want_err = e.what();
  }

  Functional streamed(prog);
  Trace got;
  std::vector<std::size_t> sizes;
  std::string got_err;
  try {
    Trace buf;
    while (!streamed.halted()) {
      buf.clear();
      streamed.stream_chunk(buf, max_steps, chunk);
      sizes.push_back(buf.size());
      got.insert(got.end(), buf.begin(), buf.end());
    }
  } catch (const ExecError& e) {
    got_err = e.what();
  }
  EXPECT_EQ(got_err, want_err);
  EXPECT_EQ(streamed.instructions(), whole.instructions());
  EXPECT_EQ(streamed.pc(), whole.pc());
  EXPECT_EQ(streamed.halted(), whole.halted());
  EXPECT_EQ(streamed.state_digest(), whole.state_digest());
  // Every chunk but the last is full: a pause never lands early.
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    EXPECT_EQ(sizes[i], chunk) << "chunk #" << i;
  if (!sizes.empty()) {
    EXPECT_GE(sizes.back(), 1u);
    EXPECT_LE(sizes.back(), chunk);
  }

  if (want_err.empty()) {
    EXPECT_EQ(got.size(), want.size());
    if (got.size() == want.size() && !got.empty()) {
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(TraceEntry)),
          0);
    }
  } else {
    // The failing chunk is not delivered; what was delivered is a prefix.
    EXPECT_LE(got.size(), streamed.instructions());
    EXPECT_LE(streamed.instructions() - got.size(), chunk);
    Functional ref(prog);
    std::size_t diverged = 0;
    for (const auto& g : got) {
      TraceEntry e;
      if (!ref.step(&e) || std::memcmp(&e, &g, sizeof e) != 0) break;
      ++diverged;
    }
    EXPECT_EQ(diverged, got.size()) << "first entry off the reference";
  }
  return got_err;
}

TEST(StreamedRun, CorpusKernelsMatchRunTrace) {
  const auto corpus = fuzz::load_corpus(HIDISC_CORPUS_DIR);
  ASSERT_FALSE(corpus.empty());
  for (const auto& r : corpus) {
    isa::Program prog;
    try {
      prog = isa::assemble(r.source);
    } catch (const std::exception&) {
      continue;  // assembly failures are corpus_test's concern
    }
    SCOPED_TRACE(r.name);
    for (const std::size_t chunk : kChunkSizes)
      expect_streamed_matches(prog, chunk, /*max_steps=*/8'000'000);
  }
}

TEST(StreamedRun, PaperWorkloadsMatchRunTrace) {
  for (const auto& w : workloads::paper_suite(workloads::Scale::Test)) {
    SCOPED_TRACE(w.name);
    const auto comp = compiler::compile(w.program);
    for (const std::size_t chunk : kChunkSizes) {
      expect_streamed_matches(comp.original, chunk);
      expect_streamed_matches(comp.separated, chunk);
    }
  }
}

// A two-instruction loop body: with an odd chunk size every other pause
// falls between the addi and the back-edge, and the next chunk resumes at
// the bne.
const char* kLoop =
    "  li r1, 0\n"
    "  li r2, 1000\n"
    "loop:\n"
    "  addi r1, r1, 1\n"
    "  bne r1, r2, loop\n"
    "  halt\n";

TEST(StreamedRun, ChunkBoundaryInsideAFusedPair) {
  const auto prog = isa::assemble(kLoop);
  for (const std::size_t chunk : kChunkSizes)
    EXPECT_EQ(expect_streamed_matches(prog, chunk), "");
}

TEST(StreamedRun, BudgetExhaustionThrowsAtTheSameInstruction) {
  const auto prog = isa::assemble(kLoop);
  for (const std::size_t chunk : kChunkSizes)
    for (const std::uint64_t budget : {0u, 1u, 7u, 1001u}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      EXPECT_EQ(expect_streamed_matches(prog, chunk, budget),
                "step budget exceeded (" + std::to_string(budget) + ")");
    }
}

}  // namespace
}  // namespace hidisc::sim
