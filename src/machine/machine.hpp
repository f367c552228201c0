// The HiDISC timing machine (paper Figure 2) and its siblings.
//
// One `Machine` simulates a whole processor: a front end that fetches the
// annotated binary along the (trace-resolved) dynamic path, predicts
// branches, and routes instructions through the separator into per-core
// instruction queues; one to three `OoOCore`s; the LDQ/SDQ/SCQ
// architectural FIFOs; the shared L1D/L2/DRAM hierarchy; and the CMP fork
// engine that launches CMAS slices when trigger instructions are fetched.
//
// Timing is cycle-accurate and globally ordered across cores, so all cache
// accesses — including CMP prefetches — interleave in true global time
// order.  Functional behaviour is resolved by the dynamic trace (DESIGN.md
// §6), read forward through a TraceWindow: either the machine's own
// streamed functional run (execution-driven) or a whole trace the caller
// obtained from sim::Functional.
//
// Time advances through an event-skip scheduler by default: on any cycle
// where no core, FIFO or front-end state changed, the machine jumps `now`
// to the earliest pending event (FU/memory completion, FIFO head becoming
// ready, fetch resume, CMP adapt tick, outstanding cache fill) instead of
// ticking through the idle gap — see docs/MACHINE.md.  The seed
// cycle-by-cycle scheduler survives as SchedulerKind::Lockstep, and
// HIDISC_LOCKSTEP=1 runs both and asserts bit-identical Results.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "diag/deadlock.hpp"
#include "diag/flight_recorder.hpp"
#include "isa/program.hpp"
#include "machine/config.hpp"
#include "machine/result.hpp"
#include "machine/trace_window.hpp"
#include "mem/memory_system.hpp"
#include "sim/functional.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/core.hpp"
#include "uarch/timed_fifo.hpp"

namespace hidisc::machine {

// Telemetry of the event-skip scheduler for one run.  Deliberately *not*
// part of machine::Result: Results are bit-identical across schedulers,
// while these numbers describe how a particular scheduler got there.
struct SchedulerStats {
  std::uint64_t event_steps = 0;     // cycles actually simulated
  std::uint64_t stall_steps = 0;     // steps where nothing progressed
  std::uint64_t skips = 0;           // fast-forward jumps taken
  std::uint64_t skipped_cycles = 0;  // idle cycles never ticked
  std::uint64_t max_skip = 0;        // longest single jump, in cycles
  std::uint64_t quiescent_core_ticks = 0;  // per-core ticks skipped while
                                           // a core was fully drained
};

class Machine {
 public:
  // `prog` must outlive the machine and must be the binary matching the
  // preset (separated for CP+AP / HiDISC — see uses_separated_binary).
  // The machine streams the functional run of `prog` itself under the
  // step budget `max_steps`; its sim::ExecError escapes run().
  Machine(const isa::Program& prog, Preset preset, const MachineConfig& cfg,
          std::uint64_t max_steps = sim::Functional::kDefaultMaxSteps);
  // The same over `trace`, `prog`'s whole trace, which must outlive it.
  Machine(const isa::Program& prog, const sim::Trace& trace, Preset preset,
          const MachineConfig& cfg = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Runs to completion and returns the collected statistics.
  // Throws diag::DeadlockError (a std::runtime_error) if the machine stops
  // making progress; the attached DeadlockReport carries queue/core
  // snapshots, a classified root cause, and the flight-recorder tail (its
  // trace_size is the full length: a streamed machine first runs the rest
  // of its functional run, and an ExecError there wins).
  // With HIDISC_LOCKSTEP=1 in the environment, an event-skip run is
  // shadowed by a fresh lock-stepped run of the same inputs and a
  // divergence in any Result field throws std::logic_error.
  [[nodiscard]] Result run();

  // Valid after run(): how the scheduler advanced time.
  [[nodiscard]] const SchedulerStats& sched_stats() const noexcept {
    return sched_;
  }

  // The always-on flight recorder (forensics; see diag/flight_recorder.hpp).
  [[nodiscard]] const diag::FlightRecorder& flight_recorder() const noexcept {
    return recorder_;
  }

 private:
  struct CmpContext {
    bool active = false;
    std::int16_t group = -1;
    std::size_t scan_pos = 0;    // next trace index to scan for slice ops
    int targets_left = 0;
  };

  Machine(const isa::Program& prog, TraceWindow window, Preset preset,
          const MachineConfig& cfg);

  [[nodiscard]] bool trace_ended(std::size_t pos) {
    return window_.ended(pos, [this] { return low_water(); });
  }
  [[nodiscard]] std::size_t low_water() const;

  void fetch(std::uint64_t now);
  bool fetch_step(std::uint64_t now);
  bool pump_cmp(std::uint64_t now);
  bool resolve_branches();
  void fork_cmas(std::int16_t group, std::size_t fetch_pos);
  [[nodiscard]] uarch::OoOCore& route(const isa::Instruction& inst);
  [[nodiscard]] bool done();
  [[nodiscard]] Result collect(std::uint64_t cycles) const;

  // Event-skip scheduler internals (see docs/MACHINE.md).
  [[nodiscard]] Result run_scheduler();
  bool step(std::uint64_t now);
  [[nodiscard]] std::uint64_t next_event_after(std::uint64_t now);
  void account_skip(std::uint64_t now, std::uint64_t delta);
  [[nodiscard]] diag::StepRecord make_record(std::uint64_t now,
                                             diag::StepKind kind,
                                             std::uint64_t arg) const;
  [[nodiscard]] diag::DeadlockReport build_deadlock_report(
      std::uint64_t now, std::uint64_t last_progress_cycle,
      bool no_pending_event, std::size_t trace_size) const;
  [[noreturn]] void throw_deadlock(std::uint64_t now,
                                   std::uint64_t last_progress_cycle,
                                   bool no_pending_event);

  const isa::Program& prog_;
  TraceWindow window_;
  Preset preset_;
  MachineConfig cfg_;

  // Per-static-instruction pre-decode shared by every core (see
  // uarch/static_op.hpp); must outlive the cores below.
  uarch::StaticOpTable optable_;

  mem::MemorySystem memsys_;
  uarch::BimodalPredictor predictor_;
  uarch::TimedFifo ldq_;
  uarch::TimedFifo sdq_;
  uarch::TimedFifo scq_;

  // Core roster: main (superscalar-style) OR cp+ap, plus optional cmp.
  std::unique_ptr<uarch::OoOCore> main_;
  std::unique_ptr<uarch::OoOCore> cp_;
  std::unique_ptr<uarch::OoOCore> ap_;
  std::unique_ptr<uarch::OoOCore> cmp_;

  // Front-end state.
  std::size_t fetch_pos_ = 0;
  bool fetch_blocked_ = false;
  std::int64_t pending_branch_pos_ = -1;
  std::uint64_t fetch_resume_cycle_ = 0;
  std::uint64_t last_fetch_block_ = ~0ull;  // I-cache model

  // CMP fork engine state.
  std::vector<CmpContext> contexts_;
  std::vector<std::size_t> group_next_scan_;
  std::vector<std::uint64_t> group_reprobe_;  // adaptive-range counters
  // Groups whose slice consumes its own loads (pointer chases): their
  // instances must chain — jumping ahead would let the trace oracle skip a
  // serial dependence no real CMP could skip.
  std::vector<bool> group_serial_;

  // Dynamic prefetch-distance control (paper §6 future work).
  void adapt_distance(std::uint64_t now);
  std::int64_t lookahead_ = 0;  // current fork distance
  std::uint64_t next_adapt_cycle_ = 0;
  std::uint64_t adapt_last_useful_ = 0;
  std::uint64_t adapt_last_late_ = 0;
  std::uint64_t adapt_last_issued_ = 0;

  // Forensics.
  diag::FlightRecorder recorder_;

  // Stats.
  SchedulerStats sched_;
  std::uint64_t fetch_stall_branch_cycles_ = 0;
  std::uint64_t fetch_stall_queue_full_ = 0;
  std::uint64_t cmas_forks_ = 0;
  std::uint64_t cmas_forks_dropped_ = 0;
  std::uint64_t cmas_forks_suppressed_ = 0;
  std::uint64_t cmas_uops_ = 0;
  std::uint64_t distance_adaptations_ = 0;
};

// Convenience wrapper: runs the streaming machine over `prog`.
[[nodiscard]] Result run_machine(const isa::Program& prog, Preset preset,
                                 const MachineConfig& cfg = {});

}  // namespace hidisc::machine
