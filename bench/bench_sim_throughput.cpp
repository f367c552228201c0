// Simulator component throughput (google-benchmark).  Not a paper figure:
// engineering microbenchmarks that keep the simulation infrastructure
// honest (the whole evaluation re-runs dozens of billion-cycle-scale
// simulations, so component speed matters).
#include <benchmark/benchmark.h>

#include "compiler/compile.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "mem/memory_system.hpp"
#include "sim/functional.hpp"
#include "uarch/branch_predictor.hpp"
#include "workloads/common.hpp"

namespace {

using namespace hidisc;

void BM_CacheAccess(benchmark::State& state) {
  mem::MemorySystem ms;
  std::uint64_t addr = 0, now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ms.access(addr, mem::AccessType::Read, ++now));
    addr = (addr + 64) & 0xfffff;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_BranchPredictor(benchmark::State& state) {
  uarch::BimodalPredictor bp;
  std::int32_t pc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp.update(pc, (pc & 3) != 0, pc + 5));
    pc = (pc + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void BM_Assembler(benchmark::State& state) {
  const auto w = workloads::make_update(workloads::Scale::Test);
  std::string source;
  {
    // Round-trip through text once so we bench pure assembly speed.
    source =
        "loop: ld r1, 0(r2)\n addi r2, r2, 8\n add r3, r3, r1\n"
        " bne r2, r4, loop\n halt\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::assemble(source));
  }
  state.SetItemsProcessed(state.iterations() * 5);  // instructions
}
BENCHMARK(BM_Assembler);

void BM_FunctionalSim(benchmark::State& state) {
  const auto w = workloads::make_field(workloads::Scale::Test);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    sim::Functional f(w.program);
    f.run();
    instructions += f.instructions();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_FunctionalSim);

void BM_TraceGeneration(benchmark::State& state) {
  const auto w = workloads::make_pointer(workloads::Scale::Test);
  std::uint64_t entries = 0;
  for (auto _ : state) {
    sim::Functional f(w.program);
    const auto trace = f.run_trace();
    entries += trace.size();
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_TraceGeneration);

// Threaded-code interpreter vs the reference switch interpreter, on the
// compiled (separated) Matrix binary so queue opcodes are exercised.  Arg 0 = threaded (run_trace), Arg 1 = reference
// (run_trace_ref); /0 over /1 is the dispatch+decode speedup the
// pre-decoded engine buys.  items = trace entries.
void BM_Functional(benchmark::State& state) {
  const auto w = workloads::make_matrix(workloads::Scale::Test);
  const auto comp = compiler::compile(w.program);
  const bool reference = state.range(0) != 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    sim::Functional f(comp.separated);
    const auto trace = reference ? f.run_trace_ref() : f.run_trace();
    entries += trace.size();
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
  state.SetLabel(reference ? "reference switch" : "threaded");
}
BENCHMARK(BM_Functional)->Arg(0)->Arg(1);

void BM_SuperscalarCycleSim(benchmark::State& state) {
  const auto w = workloads::make_dm(workloads::Scale::Test);
  const auto comp = compiler::compile(w.program);
  sim::Functional f(comp.original);
  const auto trace = f.run_trace();
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    machine::Machine m(comp.original, trace, machine::Preset::Superscalar);
    cycles += m.run().cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_SuperscalarCycleSim);

void BM_HidiscCycleSim(benchmark::State& state) {
  const auto w = workloads::make_dm(workloads::Scale::Test);
  const auto comp = compiler::compile(w.program);
  sim::Functional f(comp.separated);
  const auto trace = f.run_trace();
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    machine::Machine m(comp.separated, trace, machine::Preset::HiDISC);
    cycles += m.run().cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_HidiscCycleSim);

// Whole-machine throughput: the decoupled CP+AP machine running the
// memory-bound Matrix stressmark at the Fig. 10 high-latency memory point
// (L2 16 / DRAM 160), where most cycles find every core stalled behind a
// miss.  This is the end-to-end number the CI perf-smoke job gates on
// (tools/perf_gate.py against bench/baseline.json).  Arg 0 selects the
// scheduler, so /0 vs /1 shows the event-skip speedup directly.
void BM_FullMachine(benchmark::State& state) {
  const auto w = workloads::make_matrix(workloads::Scale::Test);
  const auto comp = compiler::compile(w.program);
  sim::Functional f(comp.separated);
  const auto trace = f.run_trace();
  machine::MachineConfig cfg;
  cfg.mem = mem::MemConfig::with_latencies(16, 160);
  cfg.scheduler = static_cast<machine::SchedulerKind>(state.range(0));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    machine::Machine m(comp.separated, trace, machine::Preset::CPAP, cfg);
    cycles += m.run().cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel(std::string("items = simulated cycles, ") +
                 (cfg.scheduler == machine::SchedulerKind::EventSkip
                      ? "event-skip"
                      : "lockstep"));
}
BENCHMARK(BM_FullMachine)
    ->Arg(static_cast<int>(machine::SchedulerKind::EventSkip))
    ->Arg(static_cast<int>(machine::SchedulerKind::Lockstep));

void BM_CompilerPipeline(benchmark::State& state) {
  const auto w = workloads::make_raytrace(workloads::Scale::Test);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compile(w.program));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.program.code.size()));
}
BENCHMARK(BM_CompilerPipeline);

}  // namespace

BENCHMARK_MAIN();
