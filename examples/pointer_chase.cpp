// Building a custom data-intensive workload against the public API:
// a linked-list traversal (the paper's motivating pointer-chasing pattern,
// §5.1), generated with the DataBuilder, compiled, and dissected.
//
// Shows how to inspect the compiler's analysis products: stream
// membership, inserted communications, the cache-access profile, and the
// CMAS groups with their triggers.
//
// Build & run:  cmake --build build && ./build/examples/pointer_chase
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"
#include "workloads/common.hpp"

int main() {
  using namespace hidisc;

  // -- Generate a scrambled singly-linked list of 16-byte nodes ------------
  // node = { next_ptr, payload }.  Node order in memory is a random
  // permutation, so traversal order has no locality.
  constexpr std::uint64_t kNodes = 1 << 15;
  constexpr std::uint64_t kVisits = 30'000;
  workloads::Rng rng(2024);
  std::vector<std::uint64_t> order(kNodes);
  for (std::uint64_t i = 0; i < kNodes; ++i) order[i] = i;
  for (std::uint64_t i = kNodes - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i)]);

  workloads::DataBuilder db;
  const std::uint64_t nodes_addr = db.align(16);
  db.add_zeros(kNodes * 16);
  const std::uint64_t res_addr = db.align(8);
  db.add_zeros(8);

  // Link node order[k] -> order[k+1]; last node points to the first.
  std::vector<std::uint64_t> next(kNodes), payload(kNodes);
  for (std::uint64_t k = 0; k < kNodes; ++k) {
    const auto from = order[k];
    const auto to = order[(k + 1) % kNodes];
    next[from] = nodes_addr + to * 16;
    payload[from] = rng.next() % 1000;
  }

  // -- The traversal kernel -------------------------------------------------
  std::ostringstream src;
  src << ".text\n_start:\n"
      << "  li   r4, " << (nodes_addr + order[0] * 16) << "   # head\n"
      << "  li   r5, " << kVisits << "\n"
      << "  li   r6, 0            # payload sum\n"
      << "loop:\n"
      << "  ld   r7, 8(r4)        # payload\n"
      << "  add  r6, r6, r7\n"
      << "  ld   r4, 0(r4)        # node = node->next  (critical chase)\n"
      << "  addi r5, r5, -1\n"
      << "  bne  r5, r0, loop\n"
      << "  li   r8, " << res_addr << "\n"
      << "  sd   r6, 0(r8)\n"
      << "  halt\n";
  isa::Program prog = isa::assemble(src.str());
  db.finish(prog);
  // Install node contents into the data image (DataBuilder wrote zeros).
  for (std::uint64_t i = 0; i < kNodes; ++i) {
    const auto off = nodes_addr - prog.data_base + i * 16;
    std::memcpy(prog.data.data() + off, &next[i], 8);
    std::memcpy(prog.data.data() + off + 8, &payload[i], 8);
  }

  // -- Golden check ----------------------------------------------------------
  std::uint64_t expect = 0;
  {
    std::uint64_t at = order[0];
    for (std::uint64_t v = 0; v < kVisits; ++v) {
      expect += payload[at];
      at = (next[at] - nodes_addr) / 16;
    }
  }

  // -- Compile and dissect ---------------------------------------------------
  const auto comp = compiler::compile(prog);
  printf("streams: %zu access / %zu computation, %zu transfers inserted\n",
         comp.access_count, comp.compute_count, comp.inserted_pops);

  // Hottest missing instructions from the cache-access profile.
  printf("\ncache-access profile (loads with most L1 misses):\n");
  for (std::size_t i = 0; i < comp.profile.per_instr.size(); ++i) {
    const auto& pi = comp.profile.per_instr[i];
    if (pi.l1_misses < 1000) continue;
    printf("  [%2zu] %-28s misses %8llu  rate %.2f\n", i,
           isa::disassemble(comp.original.code[i]).c_str(),
           static_cast<unsigned long long>(pi.l1_misses), pi.miss_rate());
  }

  printf("\nCMAS groups:\n");
  for (const auto& g : comp.groups) {
    printf("  group %d: %zu instructions, trigger at [%d], targets:", g.id,
           g.members.size(), g.trigger);
    for (const auto t : g.targets) printf(" [%d]", t);
    printf("\n");
    for (const auto m : g.members)
      printf("    %s\n", isa::disassemble(comp.original.code[m]).c_str());
  }

  // -- Run -------------------------------------------------------------------
  sim::Functional func(comp.original);
  func.run();
  const bool ok = func.memory().read<std::uint64_t>(res_addr) == expect;
  printf("\nfunctional check: %s (sum %llu)\n", ok ? "ok" : "MISMATCH",
         static_cast<unsigned long long>(expect));
  printf("note: a bare serial chase is latency-bound for every machine —\n"
         "      the CMP walks the same dependence chain, so cycles barely\n"
         "      move; the DIS stressmarks add per-hop work, which is where\n"
         "      the lean CMAS slice wins (see hilab --plan fig8).\n");

  std::uint64_t base = 0;
  for (const auto preset :
       {machine::Preset::Superscalar, machine::Preset::HiDISC}) {
    const bool sep = machine::uses_separated_binary(preset);
    const auto r =
        machine::run_machine(sep ? comp.separated : comp.original, preset);
    if (!base) base = r.cycles;
    printf("%-12s %9llu cycles  L1 miss rate %.3f  speedup %.3f\n",
           machine::preset_name(preset),
           static_cast<unsigned long long>(r.cycles),
           r.l1_demand_miss_rate(),
           static_cast<double>(base) / static_cast<double>(r.cycles));
  }
  return 0;
}
