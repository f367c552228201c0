// Table 1 reproduction: the simulation parameters in effect.  This binary
// prints the active machine configuration so a reader can check it against
// the paper's Table 1 line by line.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace hidisc;
  const machine::MachineConfig cfg;
  printf("=== Table 1: simulation parameters ===\n\n");
  stats::Table table({"Parameter", "Value", "Paper"});
  const auto& m = cfg.mem;
  table
      .add_row({"Branch predict mode", "Bimodal", "Bimodal"})
      .add_row({"Branch table size",
                std::to_string(machine::kPredictorTable), "2048"})
      .add_row({"Issue/commit width",
                std::to_string(cfg.superscalar.issue_width), "8"})
      .add_row({"Window: superscalar",
                std::to_string(cfg.superscalar.window), "64"})
      .add_row({"Window: Access Processor", std::to_string(cfg.ap.window),
                "64"})
      .add_row({"Window: Computation Processor",
                std::to_string(cfg.cp.window), "16"})
      .add_row({"Integer units / processor",
                std::to_string(cfg.ap.int_alu) + " ALU + " +
                    std::to_string(cfg.ap.int_muldiv) + " MUL/DIV",
                "ALU(x4), MUL/DIV"})
      .add_row({"FP units (superscalar, CP)",
                std::to_string(cfg.cp.fp_alu) + " ALU + " +
                    std::to_string(cfg.cp.fp_muldiv) + " MUL/DIV",
                "ALU(x4), MUL/DIV"})
      .add_row({"Memory ports / processor",
                std::to_string(cfg.ap.mem_ports), "2"})
      .add_row({"Load/store queue", std::to_string(cfg.ap.lsq), "32"})
      .add_row({"L1D organization",
                std::to_string(m.l1.sets) + " sets, " +
                    std::to_string(m.l1.block_bytes) + "B block, " +
                    std::to_string(m.l1.assoc) + "-way LRU",
                "256 sets, 32B, 4-way LRU"})
      .add_row({"L1D latency", std::to_string(m.l1.hit_latency) + " cycle",
                "1 cycle"})
      .add_row({"L2 organization",
                std::to_string(m.l2.sets) + " sets, " +
                    std::to_string(m.l2.block_bytes) + "B block, " +
                    std::to_string(m.l2.assoc) + "-way LRU",
                "1024 sets, 64B, 4-way LRU"})
      .add_row({"L2 latency", std::to_string(m.l2.hit_latency) + " cycles",
                "12 cycles"})
      .add_row({"Memory access latency",
                std::to_string(m.dram_latency) + " cycles", "120 cycles"})
      .add_row({"LDQ/SDQ capacity",
                std::to_string(cfg.ldq_capacity) + "/" +
                    std::to_string(cfg.sdq_capacity),
                "32-entry queues"});
  printf("%s\n", table.to_string().c_str());
  return 0;
}
