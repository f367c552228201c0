// Stream-separation tests, including the paper's own running examples:
// Livermore loop 1 (Figure 5/6) and discrete convolution (Figure 3).
#include <gtest/gtest.h>

#include "compiler/pfg.hpp"
#include "compiler/slicer.hpp"
#include "isa/assembler.hpp"
#include "sim/functional.hpp"

namespace hidisc::compiler {
namespace {

using isa::Opcode;
using isa::Stream;
using isa::assemble;

// Livermore loop 1: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]).
const char* kLll1 = R"(
.data
q:  .double 1.5
rr: .double 2.5
tt: .double 0.5
x:  .space 800
y:  .space 800
z:  .space 1000
.text
_start:
  la   r4, x
  la   r5, y
  la   r6, z
  fld  f20, q
  fld  f22, rr
  fld  f24, tt
  li   r7, 0
  li   r8, 100
loop:
  slli r9, r7, 3
  add  r10, r6, r9
  fld  f2, 80(r10)
  fld  f4, 88(r10)
  fmul f6, f22, f2
  fmul f8, f24, f4
  fadd f10, f6, f8
  add  r11, r5, r9
  fld  f12, 0(r11)
  fmul f14, f12, f10
  fadd f16, f20, f14
  add  r12, r4, r9
  fsd  f16, 0(r12)
  addi r7, r7, 1
  blt  r7, r8, loop
  halt
)";

TEST(AccessMembership, SeedsAreAlwaysAccess) {
  const auto p = assemble(kLll1);
  const auto in_as = access_stream_membership(p);
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const auto& inst = p.code[i];
    if (isa::is_mem(inst.op) || isa::is_control(inst.op) ||
        inst.op == Opcode::HALT) {
      EXPECT_TRUE(in_as[i]) << "instr " << i;
    }
    if (isa::is_fp_compute(inst.op)) {
      EXPECT_FALSE(in_as[i]) << "instr " << i;
    }
  }
}

TEST(AccessMembership, AddressChainsJoinAccessStream) {
  const auto p = assemble(kLll1);
  const auto in_as = access_stream_membership(p);
  // slli/add address arithmetic and the loop induction/bound belong to AS.
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const auto op = p.code[i].op;
    if (op == Opcode::SLLI || op == Opcode::ADD || op == Opcode::ADDI) {
      EXPECT_TRUE(in_as[i]) << "instr " << i;
    }
  }
}

TEST(Separation, Lll1MatchesPaperFigure6) {
  const auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  // FP compute on the CP, everything else on the AP.
  std::size_t fp_cs = 0, fld_push = 0, sdq_push = 0;
  for (const auto& inst : sep.separated.code) {
    if (isa::is_fp_compute(inst.op) && !inst.ann.compiler_inserted) {
      EXPECT_EQ(inst.ann.stream, Stream::Compute);
      ++fp_cs;
    }
    if (inst.op == Opcode::FLD && inst.ann.push_ldq) ++fld_push;
    if (inst.ann.push_sdq) {
      ++sdq_push;
      EXPECT_EQ(inst.ann.stream, Stream::Compute);
    }
  }
  EXPECT_EQ(fp_cs, 5u);      // 3 fmul + 2 fadd
  // All six loads feed FP compute: q/rr/tt constants and z/z/y elements.
  EXPECT_EQ(fld_push, 6u);
  // Only the final fadd result crosses back (store data).
  EXPECT_EQ(sdq_push, 1u);
  EXPECT_EQ(sep.inserted_pops, 7u);
}

TEST(Separation, InsertedPopsSitDirectlyAfterProducers) {
  const auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  for (const auto& [pop_idx, producer_idx] : sep.ldq_partner) {
    EXPECT_EQ(producer_idx, pop_idx - 1);
    EXPECT_TRUE(sep.separated.code[producer_idx].ann.push_ldq);
    const auto op = sep.separated.code[pop_idx].op;
    EXPECT_TRUE(op == Opcode::POPLDQ || op == Opcode::POPLDQF);
  }
  for (const auto& [pop_idx, producer_idx] : sep.sdq_partner) {
    EXPECT_EQ(producer_idx, pop_idx - 1);
    EXPECT_TRUE(sep.separated.code[producer_idx].ann.push_sdq);
  }
  EXPECT_EQ(sep.ldq_partner.size() + sep.sdq_partner.size(),
            sep.inserted_pops);
}

TEST(Separation, PopDestinationShadowsProducerDestination) {
  const auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  for (const auto& [pop_idx, producer_idx] : sep.ldq_partner)
    EXPECT_EQ(sep.separated.code[pop_idx].dst,
              sep.separated.code[producer_idx].dst);
}

// The decisive property: the separated binary computes the same thing.
TEST(Separation, SeparatedBinaryIsFunctionallyEquivalent) {
  const auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  sim::Functional f1(p), f2(sep.separated);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
}

// Paper Figure 3: inner loop of discrete convolution.
TEST(Separation, ConvolutionIsEquivalentToo) {
  const char* src = R"(
.data
xv: .double 1, 2, 3, 4, 5, 6, 7, 8
hv: .double 0.5, 0.25, 0.125, 1, 2, 0.75, 0.3, 1.5
yv: .space 64
.text
_start:
  li   r4, 8
  li   r5, 0             # i
outer:
  cvtif f10, r0          # y = 0
  li   r6, 0             # j
  beq  r5, r0, store     # i == 0: empty inner loop
inner:
  slli r9, r6, 3
  la   r10, xv
  add  r10, r10, r9
  fld  f2, 0(r10)        # x[j]
  sub  r11, r5, r6
  addi r11, r11, -1
  slli r11, r11, 3
  la   r12, hv
  add  r12, r12, r11
  fld  f4, 0(r12)        # h[i-j-1]
  fmul f6, f2, f4
  fadd f10, f10, f6
  addi r6, r6, 1
  blt  r6, r5, inner
store:
  slli r13, r5, 3
  la   r14, yv
  add  r14, r14, r13
  fsd  f10, 0(r14)       # y[i]
  addi r5, r5, 1
  blt  r5, r4, outer
  halt
)";
  const auto p = assemble(src);
  const auto sep = separate_streams(p);
  sim::Functional f1(p), f2(sep.separated);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
  // And the convolution itself is right: y[2] = x0*h1 + x1*h0.
  const auto yv = p.data_addr("yv");
  EXPECT_EQ(f2.memory().read<double>(yv + 16), 1 * 0.25 + 2 * 0.5);
}

TEST(Separation, ClosureNoAsReadsOfCsDefsWithoutPop) {
  const auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  // Per-register last writer stream walking the layout: any AS read must
  // see an AS-side (or popped) definition.  POPSDQ writes on the AS side
  // make CS-produced values visible, so after separation this must hold
  // for every operand that is not a store-data-from-queue case.
  std::vector<Stream> owner(isa::kNumArchRegs, Stream::None);
  for (const auto& inst : sep.separated.code) {
    const auto du = ProgramFlowGraph::extract_def_use(inst);
    const bool on_ap = inst.ann.stream == Stream::Access;
    if (on_ap) {
      for (const int u : {du.use[0], du.use[1]}) {
        if (u < 0) continue;
        EXPECT_NE(owner[u], Stream::Compute)
            << "AP reads CP-only register " << u;
      }
    }
    if (du.def >= 0) {
      // Pops republish the value on their own side; push_ldq/push_sdq make
      // it visible to the other side as well.
      if (inst.ann.push_ldq || inst.ann.push_sdq)
        owner[du.def] = Stream::None;  // visible to both
      else if (owner[du.def] != Stream::None &&
               owner[du.def] != inst.ann.stream)
        owner[du.def] = Stream::None;  // rewritten by the other side
      else
        owner[du.def] = inst.ann.stream;
    }
  }
}

TEST(Separation, FlowSensitivePruningDropsUnreachableTransfers) {
  // The first load's value feeds FP compute (push needed); the second
  // redefines the same register but only access-side reads follow, so the
  // flow-insensitive separator would push it pointlessly and the
  // flow-sensitive one must prune it.
  const char* src = R"(
.data
v: .dword 3
w: .dword 5
o: .space 8
.text
_start:
  ld    r5, v
  cvtif f1, r5
  cvtif f3, r5
  fadd  f2, f1, f3
  ld    r5, w
  slli  r6, r5, 3
  sd    r6, o
  halt
)";
  // (Two computation-side reads keep r5 on producer-site placement, where
  // the pruning applies.)
  const auto prog = isa::assemble(src);
  const auto fi = separate_streams(prog, nullptr, /*flow_sensitive=*/false);
  const auto fs = separate_streams(prog, nullptr, /*flow_sensitive=*/true);
  EXPECT_EQ(fs.pruned_transfers, 1u);
  EXPECT_EQ(fi.pruned_transfers, 0u);
  EXPECT_EQ(fs.inserted_pops + 1, fi.inserted_pops);
  // The pruned variant still computes the same thing.
  sim::Functional f1(prog), f2(fs.separated), f3(fi.separated);
  f1.run();
  f2.run();
  f3.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
  EXPECT_EQ(f1.memory().digest(), f3.memory().digest());
}

TEST(Separation, PruningKeepsTransfersAcrossLoopBackEdges) {
  // The def's cross use sits *before* it in layout but is reachable via
  // the loop back edge: the transfer must be kept.
  const char* src = R"(
.data
v: .space 800
o: .space 8
.text
_start:
  la   r4, v
  li   r5, 100
loop:
  cvtif f1, r6
  fadd  f2, f2, f1
  ld   r6, 0(r4)
  addi r4, r4, 8
  addi r5, r5, -1
  bne  r5, r0, loop
  fsd  f2, o
  halt
)";
  const auto prog = isa::assemble(src);
  const auto fs = separate_streams(prog, nullptr, true);
  bool load_pushes = false;
  for (const auto& inst : fs.separated.code)
    if (inst.op == Opcode::LD) load_pushes |= inst.ann.push_ldq;
  EXPECT_TRUE(load_pushes);
  sim::Functional f1(prog), f2(fs.separated);
  f1.run();
  f2.run();
  EXPECT_EQ(f1.memory().digest(), f2.memory().digest());
}

TEST(Separation, IndirectJumpsDisablePruningConservatively) {
  const char* src = R"(
.data
v: .dword 4
.text
_start:
  ld   r5, v
  la   r1, next
  jr   r1
next:
  cvtif f1, r5
  halt
)";
  const auto prog = isa::assemble(src);
  const auto fs = separate_streams(prog, nullptr, true);
  // The jr makes reachability unknowable: the load must keep its push.
  bool load_pushes = false;
  for (const auto& inst : fs.separated.code)
    if (inst.op == Opcode::LD) load_pushes |= inst.ann.push_ldq;
  EXPECT_TRUE(load_pushes);
  EXPECT_EQ(fs.pruned_transfers, 0u);
}

TEST(Separation, RejectsAlreadySeparatedInput) {
  auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  EXPECT_THROW(separate_streams(sep.separated), std::invalid_argument);
}

TEST(Separation, RejectsQueueOpcodes) {
  const auto p = assemble("pushldq r1\nhalt\n");
  EXPECT_THROW(separate_streams(p), std::invalid_argument);
}

TEST(Separation, CountsAreConsistent) {
  const auto p = assemble(kLll1);
  const auto sep = separate_streams(p);
  EXPECT_EQ(sep.access_count + sep.compute_count, p.code.size());
  EXPECT_EQ(sep.separated.code.size(),
            p.code.size() + sep.inserted_pops);
}

}  // namespace
}  // namespace hidisc::compiler
