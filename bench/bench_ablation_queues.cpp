// Ablation: decoupling queue capacity and CMP slip bound.
//
// The LDQ/SDQ capacities bound the CP-AP slip distance (paper §2.1: the
// slip distance measures latency tolerance), and the SCQ-style runahead
// bound keeps the CMP from evicting its own prefetches (DESIGN.md §6).
// This bench quantifies both on the decoupling-sensitive Field Stressmark
// and the prefetch-sensitive Update Stressmark.  Ablations A-D are the
// cells of lab plan "ablation-queues"; E runs a hand-assembled kernel.
#include <cstdio>

#include "compiler/compile.hpp"
#include "harness.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

int main() {
  using namespace hidisc;
  using machine::Preset;
  const auto plan = lab::plan_ablation_queues();
  const auto run = bench::run_checked(plan);

  printf("=== Ablation A: LDQ/SDQ capacity (Field, CP+AP) ===\n\n");
  {
    const auto& base = run.at(plan, "Field", Preset::Superscalar).result;
    stats::Table table({"Queue capacity", "CP+AP cycles", "Speed-up",
                        "LDQ empty-stall cycles"});
    for (const auto i : bench::rows(plan, Preset::CPAP, "ldq=")) {
      const auto& r = run.cells[i].result;
      table.add_row({std::to_string(plan.cells[i].config.queue_capacity),
                     std::to_string(r.cycles), bench::speedup(base, r),
                     std::to_string(r.ldq.empty_stall_cycles)});
    }
    printf("%s\n", table.to_string().c_str());
  }

  printf("=== Ablation B: CMP prefetch buffer (Update, HiDISC) ===\n\n");
  {
    const auto& base = run.at(plan, "Update", Preset::Superscalar).result;
    stats::Table table({"Prefetch buffer entries", "HiDISC cycles",
                        "Speed-up", "L1 miss rate"});
    for (const auto i : bench::rows(plan, Preset::HiDISC, "pfbuf=")) {
      const auto& r = run.cells[i].result;
      table.add_row({std::to_string(plan.cells[i].config.cmp_prefetch_buffer),
                     std::to_string(r.cycles), bench::speedup(base, r),
                     stats::Table::num(r.l1_demand_miss_rate())});
    }
    printf("%s\n", table.to_string().c_str());
  }

  printf("=== Ablation C: L2 bus bandwidth (Update, all machines) ===\n\n");
  {
    stats::Table table({"Bus cycles/miss", "Superscalar", "HiDISC",
                        "HiDISC speed-up"});
    for (const auto i : bench::rows(plan, Preset::Superscalar, "bus=")) {
      const auto& base = run.cells[i].result;
      const auto& hd =
          run.at(plan, "Update", Preset::HiDISC, plan.cells[i].tag).result;
      table.add_row(
          {std::to_string(plan.cells[i].config.mem.l2_bus_cycles),
           std::to_string(base.cycles), std::to_string(hd.cycles),
           bench::speedup(base, hd)});
    }
    printf("%s\n", table.to_string().c_str());
    printf("Prefetch traffic shares the bus with demand misses: with "
           "scarcer bandwidth the CMP's advantage shrinks.\n\n");
  }

  printf("=== Ablation D: fork mode (paper vs. chaining trigger) ===\n\n");
  {
    stats::Table table({"Benchmark", "Paper-mode speedup",
                        "Chaining speedup", "Paper uops", "Chaining uops"});
    for (const auto i : bench::rows(plan, Preset::HiDISC, "paper")) {
      const auto& name = plan.cells[i].workload.name;
      const auto& base = run.at(plan, name, Preset::Superscalar).result;
      const auto& rp = run.cells[i].result;
      const auto& rc = run.at(plan, name, Preset::HiDISC, "chaining").result;
      table.add_row({name, bench::speedup(base, rp), bench::speedup(base, rc),
                     std::to_string(rp.cmas_uops),
                     std::to_string(rc.cmas_uops)});
    }
    printf("%s\n", table.to_string().c_str());
    printf("Chaining (the paper's cited future-work trigger mode) trades "
           "fork-time holes for gap-free slice coverage.\n\n");
  }

  printf("=== Ablation E: runtime prefetch-range control "
         "(paper §6 future work) ===\n\n");
  {
    // A stride of exactly one L1 way-ring (8 KiB): every prefetch maps to
    // one set and dies unused — the case the paper's "choose only the
    // necessary prefetching at run time" is about.
    const char* src = R"(
.data
arr: .space 4194304
.text
_start:
  la   r4, arr
  li   r5, 512
loop:
  ld   r6, 0(r4)
  add  r7, r7, r6
  addi r4, r4, 8192
  addi r5, r5, -1
  bne  r5, r0, loop
  halt
)";
    const auto comp = compiler::compile(isa::assemble(src));
    stats::Table table({"Range control", "HiDISC cycles", "Prefetches",
                        "Forks suppressed"});
    for (const bool adaptive : {false, true}) {
      machine::MachineConfig cfg;
      cfg.cmp_prefetch_buffer = 32;
      cfg.cmp_adaptive_range = adaptive;
      const auto r =
          machine::run_machine(comp.separated, machine::Preset::HiDISC, cfg);
      table.add_row({adaptive ? "adaptive" : "off",
                     std::to_string(r.cycles),
                     std::to_string(r.l1.prefetches),
                     std::to_string(r.cmas_forks_suppressed)});
    }
    printf("%s\n", table.to_string().c_str());
    printf("Set-conflicting prefetches die unused; the controller detects "
           "the waste\nfrom per-group evicted-unused counters and stops "
           "forking the group.\n");
  }
  return 0;
}
