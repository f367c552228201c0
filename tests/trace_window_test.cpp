// Streaming machines (docs/MACHINE.md): a Machine that runs its own
// functional simulation through a forward-only TraceWindow gives the same
// Result, deadlock report and functional errors as one over the whole
// trace.  HIDISC_LOCKSTEP=1 with a streaming machine is covered by
// Scheduler.LockstepVerifyEnvRunsBothAndAgrees.
#include <gtest/gtest.h>

#include <string>

#include "compiler/compile.hpp"
#include "diag/deadlock.hpp"
#include "lab/plan.hpp"
#include "machine/machine.hpp"

namespace hidisc {
namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::Preset;
using machine::SchedulerKind;

compiler::Compilation compile_test_scale(const std::string& name) {
  return compiler::compile(
      lab::spec(name, workloads::Scale::Test).build().program);
}

// Runs `preset` over the whole trace and streamed; both must agree.
void expect_same(const compiler::Compilation& comp, Preset preset,
                 const MachineConfig& cfg, const std::string& where) {
  const isa::Program& bin = machine::uses_separated_binary(preset)
                                ? comp.separated
                                : comp.original;
  const sim::Trace trace = sim::Functional(bin).run_trace();
  const auto whole = Machine(bin, trace, preset, cfg).run();
  const auto streamed = Machine(bin, preset, cfg).run();
  EXPECT_TRUE(whole == streamed)
      << where << "/" << machine::preset_name(preset) << ": "
      << whole.cycles << " vs " << streamed.cycles << " cycles";
}

TEST(TraceWindow, StreamingMatchesWholeTraceOnEveryWorkload) {
  for (const auto& w : lab::workload_registry()) {
    const auto comp = compile_test_scale(w.name);
    for (const auto k : {SchedulerKind::EventSkip, SchedulerKind::Lockstep}) {
      MachineConfig cfg;
      cfg.scheduler = k;
      for (const Preset preset : lab::all_presets())
        expect_same(comp, preset, cfg, w.name);
    }
  }
}

TEST(TraceWindow, FarEdgeAndLaggingContexts) {
  // A fork cmp_lookahead_max past fetch reads the window's far edge; a
  // one-entry CMP input queue stalls slice scans, so contexts fall behind
  // fetch and their scan positions set the low-water mark.
  MachineConfig far;
  far.cmp_fork_lookahead = far.cmp_lookahead_max;
  MachineConfig lag;
  lag.cmp.input_queue = 1;
  lag.cmp_chaining = true;
  for (const char* name : {"Update", "Field", "Pointer", "Neighborhood"}) {
    const auto comp = compile_test_scale(name);
    for (const Preset preset : {Preset::CPCMP, Preset::HiDISC}) {
      expect_same(comp, preset, far, std::string(name) + "/far");
      expect_same(comp, preset, lag, std::string(name) + "/lag");
    }
  }
}

template <class Run>
std::string exec_error(const Run& run) {
  try {
    run();
  } catch (const sim::ExecError& e) {
    return e.what();
  }
  return "no ExecError";
}

TEST(TraceWindow, StepBudgetErrorMatchesRunTrace) {
  const auto comp = compile_test_scale("Pointer");
  const std::string want =
      exec_error([&] { (void)sim::Functional(comp.original).run_trace(5000); });
  EXPECT_NE(want.find("step budget exceeded"), std::string::npos) << want;
  EXPECT_EQ(exec_error([&] {
              (void)Machine(comp.original, Preset::Superscalar, {}, 5000).run();
            }),
            want);
}

diag::DeadlockReport deadlock_of(Machine&& m) {
  try {
    (void)m.run();
  } catch (const diag::DeadlockError& e) {
    return e.report();
  }
  ADD_FAILURE() << "the wedged machine finished";
  return {};
}

TEST(TraceWindow, DeadlockReportIsTheSame) {
  // The wedged configuration of tests/lab_test.cpp: a 1-cycle watchdog
  // under Lockstep deadlocks Pointer early in its trace.
  MachineConfig wedged;
  wedged.watchdog_cycles = 1;
  wedged.scheduler = SchedulerKind::Lockstep;
  const auto comp = compile_test_scale("Pointer");
  const sim::Trace trace = sim::Functional(comp.original).run_trace();
  const auto whole =
      deadlock_of(Machine(comp.original, trace, Preset::Superscalar, wedged));
  const auto streamed =
      deadlock_of(Machine(comp.original, Preset::Superscalar, wedged));
  EXPECT_LT(whole.fetch_pos, whole.trace_size);
  EXPECT_EQ(whole.to_json(), streamed.to_json());

  // A budget that runs out past the deadlock point: run_trace fails, and
  // the streaming machine fails the same way while draining its window
  // for the report — the functional error wins over the deadlock.
  const std::uint64_t budget = trace.size() - 1;
  EXPECT_EQ(exec_error([&] {
              (void)Machine(comp.original, Preset::Superscalar, wedged,
                            budget).run();
            }),
            exec_error([&] {
              (void)sim::Functional(comp.original).run_trace(budget);
            }));
}

}  // namespace
}  // namespace hidisc
