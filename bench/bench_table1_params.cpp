// Table 1 reproduction: the simulation parameters in effect.  The machine's
// Table-1 constants (machine/config.hpp, mem/memory_system.hpp) and the
// MachineConfig defaults are checked against the paper's Table 1 at
// compile time below, and printed beside the paper's values so a reader
// can check them line by line.
#include <cstdio>

#include "machine/config.hpp"
#include "mem/memory_system.hpp"
#include "stats/table.hpp"

namespace {

using namespace hidisc;
using machine::kApCore;
using machine::kCmpCore;
using machine::kCpCore;
using machine::kSuperscalarCore;
using mem::kL1Cache;
using mem::kL2Cache;

constexpr machine::MachineConfig kDefaults{};

static_assert(kDefaults.predictor_kind == uarch::PredictorKind::Bimodal &&
                  machine::kPredictorTable == 2048,
              "Table 1: bimodal predictor, 2048 entries");
static_assert(kSuperscalarCore.issue_width == 8 &&
                  kSuperscalarCore.commit_width == 8 &&
                  kCpCore.issue_width == 8 && kCpCore.commit_width == 8 &&
                  kApCore.issue_width == 8 && kApCore.commit_width == 8,
              "Table 1: issue/commit width 8");
static_assert(kSuperscalarCore.window == 64 && kCpCore.window == 16 &&
                  kApCore.window == 64,
              "Table 1: windows of 64 (superscalar), 16 (CP), 64 (AP)");
static_assert(kSuperscalarCore.int_alu == 4 &&
                  kSuperscalarCore.int_muldiv == 1 && kCpCore.int_alu == 4 &&
                  kCpCore.int_muldiv == 1 && kApCore.int_alu == 4 &&
                  kApCore.int_muldiv == 1 && kCmpCore.int_alu == 4 &&
                  kCmpCore.int_muldiv == 1,
              "Table 1: 4 integer ALUs + 1 MUL/DIV per processor");
static_assert(kSuperscalarCore.fp_alu == 4 &&
                  kSuperscalarCore.fp_muldiv == 1 && kCpCore.fp_alu == 4 &&
                  kCpCore.fp_muldiv == 1 && kApCore.fp_alu == 0 &&
                  kCmpCore.fp_alu == 0,
              "Table 1: FP units on the superscalar and the CP only");
static_assert(kSuperscalarCore.mem_ports == 2 && kApCore.mem_ports == 2 &&
                  kSuperscalarCore.lsq == 32 && kApCore.lsq == 32 &&
                  kDefaults.queue_capacity == 32,
              "Table 1: 2 memory ports, 32-entry queues");
static_assert(kL1Cache.sets == 256 && kL1Cache.block_bytes == 32 &&
                  kL1Cache.assoc == 4 && mem::kL1Latency == 1,
              "Table 1: L1D 256 sets x 32 B x 4-way, 1 cycle");
static_assert(kL2Cache.sets == 1024 && kL2Cache.block_bytes == 64 &&
                  kL2Cache.assoc == 4 && kDefaults.mem.l2_latency == 12,
              "Table 1: L2 1024 sets x 64 B x 4-way, 12 cycles");
static_assert(kDefaults.mem.dram_latency == 120, "Table 1: 120-cycle DRAM");

std::string geometry(const mem::CacheConfig& c) {
  return std::to_string(c.sets) + " sets, " + std::to_string(c.block_bytes) +
         "B block, " + std::to_string(c.assoc) + "-way LRU";
}

}  // namespace

int main() {
  printf("=== Table 1: simulation parameters ===\n\n");
  stats::Table table({"Parameter", "Value", "Paper"});
  table
      .add_row({"Branch predict mode", "Bimodal", "Bimodal"})
      .add_row({"Branch table size",
                std::to_string(machine::kPredictorTable), "2048"})
      .add_row({"Issue/commit width",
                std::to_string(kSuperscalarCore.issue_width), "8"})
      .add_row({"Window: superscalar",
                std::to_string(kSuperscalarCore.window), "64"})
      .add_row({"Window: Access Processor", std::to_string(kApCore.window),
                "64"})
      .add_row({"Window: Computation Processor",
                std::to_string(kCpCore.window), "16"})
      .add_row({"Integer units / processor",
                std::to_string(kApCore.int_alu) + " ALU + " +
                    std::to_string(kApCore.int_muldiv) + " MUL/DIV",
                "ALU(x4), MUL/DIV"})
      .add_row({"FP units (superscalar, CP)",
                std::to_string(kCpCore.fp_alu) + " ALU + " +
                    std::to_string(kCpCore.fp_muldiv) + " MUL/DIV",
                "ALU(x4), MUL/DIV"})
      .add_row({"Memory ports / processor",
                std::to_string(kApCore.mem_ports), "2"})
      .add_row({"Load/store queue", std::to_string(kApCore.lsq), "32"})
      .add_row({"L1D organization", geometry(kL1Cache),
                "256 sets, 32B, 4-way LRU"})
      .add_row({"L1D latency", std::to_string(mem::kL1Latency) + " cycle",
                "1 cycle"})
      .add_row({"L2 organization", geometry(kL2Cache),
                "1024 sets, 64B, 4-way LRU"})
      .add_row({"L2 latency",
                std::to_string(kDefaults.mem.l2_latency) + " cycles",
                "12 cycles"})
      .add_row({"Memory access latency",
                std::to_string(kDefaults.mem.dram_latency) + " cycles",
                "120 cycles"})
      .add_row({"LDQ/SDQ capacity",
                std::to_string(kDefaults.queue_capacity) + "/" +
                    std::to_string(kDefaults.queue_capacity),
                "32-entry queues"});
  printf("%s\n", table.to_string().c_str());
  return 0;
}
