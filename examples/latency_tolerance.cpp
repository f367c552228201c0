// Latency-tolerance study against the public API (the experiment behind
// the paper's Figure 10, on a user-supplied kernel): sweep the memory
// hierarchy's latencies and watch the four machines diverge.
//
// The kernel is a sparse gather — a[k] += b[index[k]] — whose index array
// is random: a typical data-intensive access pattern (paper §5.1).
//
// Build & run:  cmake --build build && ./build/examples/latency_tolerance
#include <cstdio>
#include <sstream>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "stats/table.hpp"
#include "workloads/common.hpp"

int main() {
  using namespace hidisc;

  constexpr std::uint64_t kElems = 40'000;
  constexpr std::uint64_t kTable = 1 << 15;  // 256 KiB gather target
  workloads::Rng rng(7);

  workloads::DataBuilder db;
  const std::uint64_t idx_addr = db.align(8);
  for (std::uint64_t k = 0; k < kElems; ++k)
    db.add_u64(rng.below(kTable));
  const std::uint64_t b_addr = db.align(8);
  for (std::uint64_t k = 0; k < kTable; ++k) db.add_f64(rng.unit());
  const std::uint64_t res_addr = db.align(8);
  db.add_zeros(8);

  std::ostringstream src;
  src << ".text\n_start:\n"
      << "  li   r4, " << idx_addr << "\n"
      << "  li   r5, " << b_addr << "\n"
      << "  li   r6, " << kElems << "\n"
      << "  cvtif f1, r0          # sum\n"
      << "loop:\n"
      << "  ld   r7, 0(r4)        # index[k]\n"
      << "  slli r7, r7, 3\n"
      << "  add  r7, r7, r5\n"
      << "  fld  f2, 0(r7)        # b[index[k]]  (random gather)\n"
      << "  fadd f1, f1, f2\n"
      << "  addi r4, r4, 8\n"
      << "  addi r6, r6, -1\n"
      << "  bne  r6, r0, loop\n"
      << "  li   r8, " << res_addr << "\n"
      << "  fsd  f1, 0(r8)\n"
      << "  halt\n";
  isa::Program prog = isa::assemble(src.str());
  db.finish(prog);

  const auto comp = compiler::compile(prog);
  printf("random gather over a %d KiB table, %llu elements\n\n",
         static_cast<int>(kTable * 8 / 1024),
         static_cast<unsigned long long>(kElems));

  stats::Table table({"L2/Mem latency", "Superscalar", "CP+AP", "CP+CMP",
                      "HiDISC"});
  const int sweep[4][2] = {{4, 40}, {8, 80}, {12, 120}, {16, 160}};
  std::uint64_t first[4] = {0, 0, 0, 0}, last[4] = {0, 0, 0, 0};
  for (int s = 0; s < 4; ++s) {
    machine::MachineConfig cfg;
    cfg.mem = mem::MemConfig::with_latencies(sweep[s][0], sweep[s][1]);
    std::vector<std::string> row{std::to_string(sweep[s][0]) + "/" +
                                 std::to_string(sweep[s][1])};
    int c = 0;
    for (const auto preset :
         {machine::Preset::Superscalar, machine::Preset::CPAP,
          machine::Preset::CPCMP, machine::Preset::HiDISC}) {
      const bool sep = machine::uses_separated_binary(preset);
      const auto r = machine::run_machine(
          sep ? comp.separated : comp.original, preset, cfg);
      row.push_back(std::to_string(r.cycles));
      if (s == 0) first[c] = r.cycles;
      if (s == 3) last[c] = r.cycles;
      ++c;
    }
    table.add_row(row);
  }
  std::vector<std::string> slow{"slowdown 4/40 -> 16/160"};
  for (int c = 0; c < 4; ++c)
    slow.push_back(stats::Table::num(
        static_cast<double>(last[c]) / static_cast<double>(first[c]), 2) +
        "x");
  table.add_row(slow);
  printf("%s\n", table.to_string().c_str());
  printf(
      "HiDISC is fastest at every latency point.  A gather this regular has\n"
      "plenty of memory-level parallelism, so every machine's total run\n"
      "time still scales with latency; the paper's Figure 10 shape — flat\n"
      "IPC for the CMP machines while the baseline collapses — appears on\n"
      "the window-limited Stressmarks (run bench_fig10_latency).\n");
  return 0;
}
