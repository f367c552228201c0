// Quickstart: the whole HiDISC pipeline on one small kernel.
//
//   1. Assemble a HISA program (a daxpy-style loop).
//   2. Run it on the functional simulator and inspect the result.
//   3. Compile it with the HiDISC compiler: stream separation + CMAS.
//   4. Simulate all four machine configurations and compare cycles.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

int main() {
  using namespace hidisc;

  // -- 1. Assemble ----------------------------------------------------------
  // y[i] = a*x[i] + y[i] over 32768 doubles (512 KiB of streams).  `x` is initialized by a tiny
  // integer loop so the program is self-contained.
  const char* source = R"(
.data
a:  .double 2.5
x:  .space 262144
y:  .space 262144
.text
_start:
  la   r4, x
  la   r5, y
  li   r6, 32768
  li   r7, 1
init:                       # x[i] = i, y[i] = 2i (as doubles)
  cvtif f1, r7
  fsd  f1, 0(r4)
  fadd f2, f1, f1
  fsd  f2, 0(r5)
  addi r4, r4, 8
  addi r5, r5, 8
  addi r7, r7, 1
  bne  r7, r6, init
  la   r4, x
  la   r5, y
  li   r6, 32767
  fld  f3, a
daxpy:
  fld  f4, 0(r4)
  fld  f5, 0(r5)
  fmul f6, f4, f3
  fadd f7, f6, f5
  fsd  f7, 0(r5)
  addi r4, r4, 8
  addi r5, r5, 8
  addi r6, r6, -1
  bne  r6, r0, daxpy
  halt
)";
  const isa::Program prog = isa::assemble(source);
  printf("assembled %zu instructions, %zu data bytes\n\n", prog.code.size(),
         prog.data.size());

  // -- 2. Functional run ----------------------------------------------------
  sim::Functional func(prog);
  func.run();
  const auto y0 = func.memory().read<double>(prog.data_addr("y"));
  printf("functional result: y[0] = %.1f (expect 2.5*1 + 2 = 4.5)\n",
         y0);
  printf("dynamic instructions: %llu\n\n",
         static_cast<unsigned long long>(func.instructions()));

  // -- 3. Compile -----------------------------------------------------------
  const compiler::Compilation comp = compiler::compile(prog);
  printf("HiDISC compiler: %zu access-stream + %zu computation-stream "
         "instructions, %zu queue transfers inserted, %zu CMAS group(s)\n",
         comp.access_count, comp.compute_count, comp.inserted_pops,
         comp.groups.size());
  printf("\nfirst daxpy iteration after separation:\n");
  const auto start = comp.separated.code_index("daxpy");
  for (std::int32_t i = start; i < start + 8; ++i)
    printf("  %s\n", isa::disassemble(comp.separated.code[i]).c_str());
  printf("\n");

  // -- 4. Timing simulation -------------------------------------------------
  std::uint64_t base_cycles = 0;
  for (const auto preset :
       {machine::Preset::Superscalar, machine::Preset::CPAP,
        machine::Preset::CPCMP, machine::Preset::HiDISC}) {
    const bool sep = machine::uses_separated_binary(preset);
    const auto r =
        machine::run_machine(sep ? comp.separated : comp.original, preset);
    if (preset == machine::Preset::Superscalar) base_cycles = r.cycles;
    printf("%-12s %9llu cycles  ipc %.2f  L1 miss rate %.3f  speedup %.3f\n",
           machine::preset_name(preset),
           static_cast<unsigned long long>(r.cycles), r.ipc,
           r.l1_demand_miss_rate(),
           static_cast<double>(base_cycles) / static_cast<double>(r.cycles));
  }
  return 0;
}
