// Event-skip scheduler correctness (see docs/MACHINE.md).
//
// The contract under test: SchedulerKind::EventSkip produces a
// machine::Result bit-identical to SchedulerKind::Lockstep (the seed
// cycle-by-cycle scheduler) on every workload/preset/latency combination,
// while actually skipping idle cycles; and OoOCore::next_event_cycle is a
// sound, stable promise — no state change ever happens before the cycle it
// reports.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

#include "compiler/compile.hpp"
#include "machine/machine.hpp"
#include "mem/memory_system.hpp"
#include "uarch/core.hpp"
#include "uarch/event.hpp"
#include "workloads/common.hpp"

namespace hidisc {
namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::Preset;
using machine::SchedulerKind;


// Runs one preset under the given scheduler and returns the Result plus
// the scheduler's telemetry.
machine::Result run_with(const compiler::Compilation& p, Preset preset,
                         SchedulerKind k, MachineConfig cfg,
                         machine::SchedulerStats* stats = nullptr) {
  cfg.scheduler = k;
  Machine m(machine::uses_separated_binary(preset) ? p.separated : p.original,
            preset, cfg);
  const auto r = m.run();
  if (stats != nullptr) *stats = m.sched_stats();
  return r;
}

constexpr Preset kAllPresets[] = {Preset::Superscalar, Preset::CPAP,
                                  Preset::CPCMP, Preset::HiDISC};

// The three DIS stressmarks the paper's Figures 8-10 lean on hardest.
std::vector<workloads::BuiltWorkload> paper_workloads() {
  std::vector<workloads::BuiltWorkload> ws;
  ws.push_back(workloads::make_pointer(workloads::Scale::Test));
  ws.push_back(workloads::make_update(workloads::Scale::Test));
  ws.push_back(workloads::make_field(workloads::Scale::Test));
  return ws;
}

TEST(SchedulerEquivalence, PaperWorkloadsAllPresetsTable1Latencies) {
  for (const auto& w : paper_workloads()) {
    const auto p = compiler::compile(w.program);
    for (const Preset preset : kAllPresets) {
      const auto skip = run_with(p, preset, SchedulerKind::EventSkip, {});
      const auto lock = run_with(p, preset, SchedulerKind::Lockstep, {});
      EXPECT_TRUE(skip == lock)
          << w.name << "/" << machine::preset_name(preset)
          << ": event-skip {" << skip.cycles << " cycles, "
          << skip.instructions << " insts} vs lockstep {" << lock.cycles
          << " cycles, " << lock.instructions << " insts}";
    }
  }
}

TEST(SchedulerEquivalence, HighLatencySweepPointActuallySkips) {
  MachineConfig cfg;
  cfg.mem = mem::MemConfig::with_latencies(16, 160);  // Fig. 10 far point
  const auto p =
      compiler::compile(workloads::make_update(workloads::Scale::Test).program);
  for (const Preset preset : kAllPresets) {
    machine::SchedulerStats stats;
    const auto skip =
        run_with(p, preset, SchedulerKind::EventSkip, cfg, &stats);
    const auto lock = run_with(p, preset, SchedulerKind::Lockstep, cfg);
    EXPECT_TRUE(skip == lock) << machine::preset_name(preset);
    // Memory-bound at DRAM 160: a real fraction of cycles must be skipped,
    // or the scheduler is silently degenerating to lockstep.
    EXPECT_GT(stats.skips, 0u) << machine::preset_name(preset);
    EXPECT_GT(stats.skipped_cycles, 0u) << machine::preset_name(preset);
    EXPECT_GT(stats.max_skip, 1u) << machine::preset_name(preset);
    EXPECT_LT(stats.event_steps, skip.cycles)
        << machine::preset_name(preset);
  }
}

TEST(Scheduler, QuiescentCoresAreNotTickedOnMemoryBoundStressmark) {
  MachineConfig cfg;
  cfg.mem = mem::MemConfig::with_latencies(16, 160);
  const auto p =
      compiler::compile(workloads::make_matrix(workloads::Scale::Test).program);
  machine::SchedulerStats stats;
  const auto r =
      run_with(p, Preset::HiDISC, SchedulerKind::EventSkip, cfg, &stats);
  EXPECT_GT(r.cycles, 0u);
  // With CP, AP and CMP all present, some core must drain before the run
  // ends (the CP finishes its compute stream while the AP still waits on
  // DRAM) — those cores are skipped, not ticked.
  EXPECT_GT(stats.quiescent_core_ticks, 0u);
}

TEST(Scheduler, WatchdogCountsEventStepsNotSkippedCycles) {
  // DRAM far above the watchdog threshold: every miss is a legal stall
  // longer than watchdog_cycles.  The seed watchdog (raw cycle deltas)
  // would abort here; the event-step watchdog must ride through, because
  // each multi-thousand-cycle skip is a single stalled step.
  MachineConfig cfg;
  cfg.mem = mem::MemConfig::with_latencies(16, 5000);
  cfg.watchdog_cycles = 2000;
  const auto p =
      compiler::compile(workloads::make_update(workloads::Scale::Test).program);
  const auto skip = run_with(p, Preset::Superscalar, SchedulerKind::EventSkip,
                             cfg);
  EXPECT_GT(skip.cycles, 5000u);
  // The same run with an ample watchdog agrees bit-for-bit, so the tight
  // watchdog changed nothing but the abort policy.
  cfg.watchdog_cycles = 100'000'000;
  const auto lock =
      run_with(p, Preset::Superscalar, SchedulerKind::Lockstep, cfg);
  EXPECT_TRUE(skip == lock);
}

TEST(Scheduler, LockstepVerifyEnvRunsBothAndAgrees) {
  ::setenv("HIDISC_LOCKSTEP", "1", 1);
  const auto p =
      compiler::compile(workloads::make_field(workloads::Scale::Test).program);
  machine::Result r;
  EXPECT_NO_THROW({
    r = run_with(p, Preset::HiDISC, SchedulerKind::EventSkip, {});
  });
  ::unsetenv("HIDISC_LOCKSTEP");
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.instructions, 0u);
}

// ---------------------------------------------------------------------------
// next_event_cycle soundness under random stimulus, against a raw OoOCore.

using isa::Instruction;
using isa::Opcode;
using isa::ir;

class NextEventTest : public ::testing::Test {
 protected:
  // Fixture owns instructions: DynOp keeps pointers into this storage.
  uarch::DynOp op_for(const Instruction& inst, std::uint64_t addr = 0) {
    held_.push_back(std::make_unique<Instruction>(inst));
    uarch::DynOp op;
    op.trace_pos = static_cast<std::int64_t>(held_.size()) - 1;
    op.static_idx = static_cast<std::int32_t>(held_.size()) - 1;
    op.inst = held_.back().get();
    op.addr = addr;
    return op;
  }

  std::vector<std::unique_ptr<Instruction>> held_;
  mem::MemorySystem memsys_;
};

TEST_F(NextEventTest, PromiseIsSoundAndStableUnderRandomStimulus) {
  uarch::CoreConfig cfg;
  cfg.name = "rand";
  cfg.window = 16;
  cfg.issue_width = 2;
  cfg.commit_width = 2;
  cfg.dispatch_width = 2;
  cfg.input_queue = 256;
  cfg.int_alu = 2;
  cfg.int_muldiv = 1;
  cfg.mem_ports = 1;
  cfg.has_lsu = true;
  uarch::OoOCore core(cfg, &memsys_, {});

  std::mt19937_64 rng(0xD15Cu);
  for (int i = 0; i < 200; ++i) {
    const int kind = static_cast<int>(rng() % 3);
    const int dst = 1 + static_cast<int>(rng() % 8);
    const int src = 1 + static_cast<int>(rng() % 8);
    Instruction inst;
    if (kind == 0) {  // dependent ALU op
      inst.op = Opcode::ADD;
      inst.dst = ir(static_cast<std::uint8_t>(dst));
      inst.src1 = ir(static_cast<std::uint8_t>(src));
      inst.src2 = ir(static_cast<std::uint8_t>(dst));
      ASSERT_TRUE(core.enqueue(op_for(inst)));
    } else if (kind == 1) {  // load with a scattered address (misses mix in)
      inst.op = Opcode::LD;
      inst.dst = ir(static_cast<std::uint8_t>(dst));
      inst.src1 = ir(static_cast<std::uint8_t>(src));
      ASSERT_TRUE(core.enqueue(op_for(inst, (rng() % 512) * 8192)));
    } else {  // long-latency integer multiply
      inst.op = Opcode::MUL;
      inst.dst = ir(static_cast<std::uint8_t>(dst));
      inst.src1 = ir(static_cast<std::uint8_t>(src));
      inst.src2 = ir(static_cast<std::uint8_t>(dst));
      ASSERT_TRUE(core.enqueue(op_for(inst)));
    }
  }

  std::uint64_t now = 0;
  std::uint64_t promise = 0;      // earliest promised event, 0 = none
  const std::uint64_t limit = 2'000'000;
  while (!core.drained()) {
    const bool progress = core.tick(now);
    if (progress) {
      // Soundness: a promise says nothing can change before that cycle.
      // Progress strictly before it means next_event_cycle missed an
      // event — the fatal direction for the event-skip scheduler.
      if (promise != 0) {
        EXPECT_GE(now, promise) << "missed event at " << now;
      }
      promise = 0;
    } else {
      const std::uint64_t ev = core.next_event_cycle(now);
      // A stalled-but-not-drained core must always have a wake-up point.
      ASSERT_NE(ev, uarch::kNoEvent) << "wedged at cycle " << now;
      ASSERT_GT(ev, now);
      // Stability: with no state change, the promise may not move earlier
      // across consecutive stalled cycles (monotonicity of the frozen
      // state's thresholds).
      if (promise != 0) {
        EXPECT_GE(ev, promise) << "promise moved at " << now;
      }
      promise = ev;
    }
    ASSERT_LT(++now, limit) << "core did not drain";
  }
}

// ---------------------------------------------------------------------------
// Incremental-frontier invariants under random stimulus (docs/MACHINE.md,
// "Hot-path data structures").  After every tick, debug_check_invariants
// recomputes by brute force what the core maintains incrementally — the
// completion frontier, the unissued-slot mask, every filled-in
// source-ready cycle, the pending-push cursors and the
// store-disambiguation map — and throws std::logic_error on any
// disagreement.

TEST_F(NextEventTest, InvariantsHoldUnderRandomAluMemStimulus) {
  uarch::CoreConfig cfg;
  cfg.name = "inv";
  cfg.window = 16;
  cfg.issue_width = 2;
  cfg.commit_width = 2;
  cfg.dispatch_width = 2;
  cfg.input_queue = 64;
  cfg.lsq = 8;
  cfg.int_alu = 2;
  cfg.int_muldiv = 1;
  cfg.mem_ports = 1;
  cfg.has_lsu = true;
  uarch::OoOCore core(cfg, &memsys_, {});

  // Addresses collide on a handful of 8-byte lines so loads meet older
  // in-window stores: the store map, disambiguation waits and
  // store-to-load forwarding all get exercised.  DIVs keep the single
  // unpipelined unit saturated, and the dependent DIV/MUL chains leave
  // consumers with source-ready cycles far in the future.
  std::mt19937_64 rng(0xC0FFEEu);
  const auto rand_addr = [&] { return (rng() % 8) * 8 + (rng() % 8) * 4096; };
  int fed = 0;
  std::uint64_t now = 0;
  const std::uint64_t limit = 1'000'000;
  while (fed < 400 || !core.drained()) {
    for (int burst = static_cast<int>(rng() % 3);
         burst-- > 0 && fed < 400 && !core.input_full(); ++fed) {
      const int dst = 1 + static_cast<int>(rng() % 8);
      const int src = 1 + static_cast<int>(rng() % 8);
      Instruction inst;
      std::uint64_t addr = 0;
      switch (rng() % 5) {
        case 0:  // dependent ALU op
          inst.op = Opcode::ADD;
          inst.src2 = ir(static_cast<std::uint8_t>(dst));
          break;
        case 1:  // unpipelined divide: hogs the single MUL/DIV unit
          inst.op = Opcode::DIV;
          inst.src2 = ir(static_cast<std::uint8_t>(dst));
          break;
        case 2:  // long-latency multiply
          inst.op = Opcode::MUL;
          inst.src2 = ir(static_cast<std::uint8_t>(dst));
          break;
        case 3:  // load, possibly behind an in-window store on its line
          inst.op = Opcode::LD;
          addr = rand_addr();
          break;
        default:  // store
          inst.op = Opcode::SD;
          inst.src2 = ir(static_cast<std::uint8_t>(dst));
          addr = rand_addr();
          break;
      }
      inst.dst = ir(static_cast<std::uint8_t>(dst));
      inst.src1 = ir(static_cast<std::uint8_t>(src));
      ASSERT_TRUE(core.enqueue(op_for(inst, addr)));
    }
    core.tick(now);
    ASSERT_NO_THROW(core.debug_check_invariants(now)) << "cycle " << now;
    ASSERT_LT(++now, limit) << "core did not drain";
  }
  EXPECT_GT(core.stats().committed, 0u);
  EXPECT_GT(core.stats().forwarded_loads, 0u);  // stimulus really collided
}

TEST_F(NextEventTest, InvariantsHoldAcrossQueueProducerConsumerPair) {
  // A producer core feeding an LDQ that a consumer core pops, with the
  // producer deliberately bursty so the consumer's POPLDQ entries run the
  // queue dry and wait on it, both as the oldest unissued entry (charged
  // a stall each cycle) and behind it, while the window ring wraps.
  uarch::TimedFifo ldq("LDQ", 4);
  uarch::CoreConfig pcfg;
  pcfg.name = "prod";
  pcfg.window = 8;
  pcfg.issue_width = 1;
  pcfg.commit_width = 1;
  pcfg.dispatch_width = 1;
  pcfg.input_queue = 128;
  pcfg.has_lsu = false;
  pcfg.fp_alu = 0;
  uarch::CoreConfig ccfg = pcfg;
  ccfg.name = "cons";
  ccfg.issue_width = 2;
  ccfg.dispatch_width = 2;
  ccfg.commit_width = 2;
  uarch::OoOCore::Queues qs;
  qs.ldq = &ldq;
  uarch::OoOCore prod(pcfg, &memsys_, qs);
  uarch::OoOCore cons(ccfg, &memsys_, qs);

  std::mt19937_64 rng(0xF1F0u);
  constexpr int kTokens = 60;
  // The consumer's whole program is enqueued up front: each POPLDQ is
  // chased by a dependent ADD so issue pressure stays up while it waits.
  for (int i = 0; i < kTokens; ++i) {
    Instruction pop;
    pop.op = Opcode::POPLDQ;
    pop.dst = ir(1);
    ASSERT_TRUE(cons.enqueue(op_for(pop)));
    Instruction add;
    add.op = Opcode::ADD;
    add.dst = ir(2);
    add.src1 = ir(1);
    add.src2 = ir(2);
    ASSERT_TRUE(cons.enqueue(op_for(add)));
  }

  int pushed = 0;
  std::uint64_t now = 0;
  const std::uint64_t limit = 1'000'000;
  while (!cons.drained() || !prod.drained() || pushed < kTokens) {
    // Bursty producer: long silences followed by clumps of pushes.
    if (pushed < kTokens && now % 23 == 0) {
      for (int burst = 1 + static_cast<int>(rng() % 3);
           burst-- > 0 && pushed < kTokens; ++pushed) {
        Instruction push;
        push.op = Opcode::PUSHLDQ;
        push.src1 = ir(3);
        ASSERT_TRUE(prod.enqueue(op_for(push)));
      }
    }
    prod.tick(now);
    cons.tick(now);
    ASSERT_NO_THROW(prod.debug_check_invariants(now)) << "cycle " << now;
    ASSERT_NO_THROW(cons.debug_check_invariants(now)) << "cycle " << now;
    ASSERT_LT(++now, limit) << "pair did not drain";
  }
  EXPECT_EQ(cons.stats().committed, 2u * kTokens);
  // The dry spells must really have left the consumer's oldest entry
  // waiting on the empty queue — otherwise this test lost its coverage
  // of the stall charge.
  EXPECT_GT(cons.stats().head_pop_empty_stalls, 0u);
  EXPECT_TRUE(ldq.empty());
}

}  // namespace
}  // namespace hidisc
