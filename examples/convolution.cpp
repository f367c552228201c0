// The paper's Figure 3: discrete convolution as processed by HiDISC.
//
// This example shows BOTH ways of producing decoupled code:
//
//   (a) hand-written streams in the style of the paper's Figure 3,
//       using the explicit queue opcodes (pushldq/popldq, puteod/beod,
//       getscq/putscq) — here the two streams are interleaved in one
//       program so the functional simulator can check the queue protocol;
//   (b) the HiDISC compiler's automatic separation of the plain sequential
//       loop, which the timing machines then run.
//
// Build & run:  cmake --build build && ./build/examples/convolution
#include <cstdio>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace {

constexpr int kN = 64;  // y[i] = sum_j x[j] * h[i-j-1]

// Plain sequential convolution (the compiler's input).
const char* kSequential = R"(
.data
xv: .space 512
hv: .space 512
yv: .space 512
.text
_start:
  la   r2, xv            # initialize x[j] = j+1, h[j] = 1/(j+1)
  la   r3, hv
  li   r4, 64
  li   r5, 0
init:
  addi r6, r5, 1
  cvtif f1, r6
  fsd  f1, 0(r2)
  cvtif f2, r6
  fld  f3, one
  fdiv f4, f3, f2
  fsd  f4, 0(r3)
  addi r2, r2, 8
  addi r3, r3, 8
  addi r5, r5, 1
  bne  r5, r4, init
  li   r5, 0             # i
outer:
  cvtif f10, r0          # y = 0
  li   r6, 0             # j
  beq  r5, r0, store
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
.data
one: .double 1.0
)";

// Figure-3-style hand-decoupled inner loop for ONE output element.  The
// access stream loads x[j] and h[i-j-1] into the LDQ and finishes with an
// End-Of-Data token; the computation stream multiply-accumulates until it
// sees the EOD.  Cache-management prefetches hand tokens through the SCQ.
// Interleaved here so the (sequential) functional simulator exercises the
// exact queue protocol of the paper's Figure 3 pseudo-code.
const char* kHandDecoupled = R"(
.data
xv: .double 1, 2, 3, 4, 5, 6, 7, 8
hv: .double 0.125, 0.25, 0.5, 1, 2, 4, 8, 16
yv: .space 8
.text
_start:
  li   r4, 8             # i = 8: compute y[7] over j = 0..7
  li   r6, 0             # j
loop:                    # --- cache management code (CMP) ---
  slli r9, r6, 3
  la   r10, xv
  add  r10, r10, r9
  pref 0(r10)            # prefetch x[j]
  sub  r11, r4, r6
  addi r11, r11, -1
  slli r11, r11, 3
  la   r12, hv
  add  r12, r12, r11
  pref 0(r12)            # prefetch h[i-j-1]
  putscq                 # hand the slip token to the AP
                         # --- access code (AP) ---
  getscq                 # consume the slip token
  fld  f2, 0(r10)
  pushldqf f2            # x[j] -> LDQ
  fld  f4, 0(r12)
  pushldqf f4            # h[i-j-1] -> LDQ
                         # --- computation code (CP) ---
  popldqf f6
  popldqf f7
  fmul f8, f6, f7
  fadd f10, f10, f8      # y += x[j] * h[i-j-1]
  addi r6, r6, 1
  blt  r6, r4, loop
  puteod                 # AP: end of data
  beod finish            # CP: consume EOD, leave the loop
  halt                   # (unreachable: protocol violation trap)
finish:
  la   r14, yv
  fsd  f10, 0(r14)
  halt
)";

}  // namespace

int main() {
  using namespace hidisc;

  // -- (a) the hand-decoupled Figure 3 protocol -----------------------------
  {
    const auto prog = isa::assemble(kHandDecoupled);
    sim::Functional f(prog);
    f.run();
    const double y7 = f.memory().read<double>(prog.data_addr("yv"));
    double expect = 0;
    const double x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const double h[8] = {0.125, 0.25, 0.5, 1, 2, 4, 8, 16};
    for (int j = 0; j < 8; ++j) expect += x[j] * h[8 - j - 1];
    printf("Figure-3 hand-decoupled protocol: y[7] = %g (expect %g) %s\n\n",
           y7, expect, y7 == expect ? "[ok]" : "[MISMATCH]");
  }

  // -- (b) compiler-separated convolution on all four machines -------------
  const auto prog = isa::assemble(kSequential);
  const auto comp = compiler::compile(prog);
  printf("compiler separation: %zu AS + %zu CS instructions, "
         "%zu queue transfers\n",
         comp.access_count, comp.compute_count, comp.inserted_pops);

  sim::Functional fo(comp.original);
  fo.run();
  sim::Functional fs(comp.separated);
  fs.run();
  printf("y[63] = %.6f (both binaries agree: %s)\n\n",
         fo.memory().read<double>(prog.data_addr("yv") + 63 * 8),
         fo.memory().digest() == fs.memory().digest() ? "yes" : "NO");

  std::uint64_t base = 0;
  for (const auto preset :
       {machine::Preset::Superscalar, machine::Preset::CPAP,
        machine::Preset::CPCMP, machine::Preset::HiDISC}) {
    const bool sep = machine::uses_separated_binary(preset);
    const auto r =
        machine::run_machine(sep ? comp.separated : comp.original, preset);
    if (preset == machine::Preset::Superscalar) base = r.cycles;
    printf("%-12s %7llu cycles  speedup %.3f\n", machine::preset_name(preset),
           static_cast<unsigned long long>(r.cycles),
           static_cast<double>(base) / static_cast<double>(r.cycles));
  }
  return 0;
}
