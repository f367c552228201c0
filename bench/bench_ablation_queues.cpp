// Ablation: decoupling queue capacity and CMP slip bound.
//
// The LDQ/SDQ capacities bound the CP-AP slip distance (paper §2.1: the
// slip distance measures latency tolerance), and the SCQ-style runahead
// bound keeps the CMP from evicting its own prefetches (DESIGN.md §6).
// This bench quantifies both on the decoupling-sensitive Field Stressmark
// and the prefetch-sensitive Update Stressmark.
#include <cstdio>

#include "harness.hpp"
#include "isa/assembler.hpp"

int main() {
  using namespace hidisc;
  printf("=== Ablation A: LDQ/SDQ capacity (Field, CP+AP) ===\n\n");
  {
    const auto p = bench::prepare(workloads::make_field(
        workloads::Scale::Paper));
    const auto base = bench::run_preset(p, machine::Preset::Superscalar);
    stats::Table table({"Queue capacity", "CP+AP cycles", "Speed-up",
                        "LDQ empty-stall cycles"});
    for (const std::size_t cap : {2u, 4u, 8u, 16u, 32u, 64u}) {
      machine::MachineConfig cfg;
      cfg.ldq_capacity = cap;
      cfg.sdq_capacity = cap;
      const auto r = bench::run_preset(p, machine::Preset::CPAP, cfg);
      table.add_row(
          {std::to_string(cap), std::to_string(r.cycles),
           stats::Table::num(static_cast<double>(base.cycles) / r.cycles),
           std::to_string(r.ldq.empty_stall_cycles)});
    }
    printf("%s\n", table.to_string().c_str());
  }

  printf("=== Ablation B: CMP prefetch buffer (Update, HiDISC) ===\n\n");
  {
    const auto p = bench::prepare(workloads::make_update(
        workloads::Scale::Paper));
    const auto base = bench::run_preset(p, machine::Preset::Superscalar);
    stats::Table table({"Prefetch buffer entries", "HiDISC cycles",
                        "Speed-up", "L1 miss rate"});
    for (const int buf : {1, 2, 4, 8, 16, 32}) {
      machine::MachineConfig cfg;
      cfg.cmp.prefetch_buffer = buf;
      const auto r = bench::run_preset(p, machine::Preset::HiDISC, cfg);
      table.add_row(
          {std::to_string(buf), std::to_string(r.cycles),
           stats::Table::num(static_cast<double>(base.cycles) / r.cycles),
           stats::Table::num(r.l1_demand_miss_rate())});
    }
    printf("%s\n", table.to_string().c_str());
  }

  printf("=== Ablation C: L2 bus bandwidth (Update, all machines) ===\n\n");
  {
    const auto p = bench::prepare(workloads::make_update(
        workloads::Scale::Paper));
    stats::Table table({"Bus cycles/miss", "Superscalar", "HiDISC",
                        "HiDISC speed-up"});
    for (const int bus : {0, 4, 8, 16}) {
      machine::MachineConfig cfg;
      cfg.mem.l2_bus_cycles = bus;
      const auto base = bench::run_preset(p, machine::Preset::Superscalar,
                                          cfg);
      const auto hd = bench::run_preset(p, machine::Preset::HiDISC, cfg);
      table.add_row(
          {std::to_string(bus), std::to_string(base.cycles),
           std::to_string(hd.cycles),
           stats::Table::num(static_cast<double>(base.cycles) / hd.cycles)});
    }
    printf("%s\n", table.to_string().c_str());
    printf("Prefetch traffic shares the bus with demand misses: with "
           "scarcer bandwidth the CMP's advantage shrinks.\n\n");
  }

  printf("=== Ablation D: fork mode (paper vs. chaining trigger) ===\n\n");
  {
    stats::Table table({"Benchmark", "Paper-mode speedup",
                        "Chaining speedup", "Paper uops", "Chaining uops"});
    for (auto* make : {&workloads::make_update, &workloads::make_transitive}) {
      const auto w = make(workloads::Scale::Paper,
                          make == &workloads::make_update ? 2 : 5);
      const auto p = bench::prepare(w);
      const auto base = bench::run_preset(p, machine::Preset::Superscalar);
      machine::MachineConfig paper_mode;
      machine::MachineConfig chaining;
      chaining.cmp_chaining = true;
      chaining.cmp_targets_per_fork = 256;
      const auto rp = bench::run_preset(p, machine::Preset::HiDISC,
                                        paper_mode);
      const auto rc = bench::run_preset(p, machine::Preset::HiDISC,
                                        chaining);
      table.add_row(
          {w.name,
           stats::Table::num(static_cast<double>(base.cycles) / rp.cycles),
           stats::Table::num(static_cast<double>(base.cycles) / rc.cycles),
           std::to_string(rp.cmas_uops), std::to_string(rc.cmas_uops)});
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
      cfg.cmp.prefetch_buffer = 32;
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
