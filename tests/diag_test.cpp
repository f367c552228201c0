// Failure forensics: the flight recorder, the DeadlockReport classifier,
// the typed DeadlockError thrown by the timing machines, and the shared
// quarantine routine the on-disk stores move damaged files aside with.
//
// The classifier is exercised two ways: pure-unit (hand-built
// DeadlockReport snapshots, one per root-cause class) and end-to-end
// (hand-broken kernels driven through machine::Machine until the watchdog
// fires, asserting the caught report carries the expected class and
// evidence).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "diag/deadlock.hpp"
#include "diag/flight_recorder.hpp"
#include "diag/quarantine.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc {
namespace {

using diag::DeadlockCause;
using diag::DeadlockReport;
using diag::FlightRecorder;
using diag::StallWhy;
using diag::StepKind;
using diag::StepRecord;
using isa::Stream;

// ---- flight recorder -------------------------------------------------------

TEST(FlightRecorder, DepthRoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(16).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(17).capacity(), 32u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
}

TEST(FlightRecorder, SnapshotBeforeWrapIsOldestFirst) {
  FlightRecorder rec(16);
  for (std::uint64_t i = 0; i < 5; ++i) {
    StepRecord r;
    r.cycle = i;
    r.kind = StepKind::Progress;
    rec.record(r);
  }
  EXPECT_EQ(rec.recorded(), 5u);
  const auto tail = rec.snapshot();
  ASSERT_EQ(tail.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(tail[i].cycle, i);
}

TEST(FlightRecorder, WrapKeepsOnlyTheMostRecentCapacityRecords) {
  FlightRecorder rec(16);
  for (std::uint64_t i = 0; i < 40; ++i) {
    StepRecord r;
    r.cycle = i;
    rec.record(r);
  }
  EXPECT_EQ(rec.recorded(), 40u);
  const auto tail = rec.snapshot();
  ASSERT_EQ(tail.size(), 16u);
  // Oldest retained record is 40 - 16 = 24; tail ascends from there.
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].cycle, 24u + i);
}

// ---- classifier units ------------------------------------------------------

// A minimal report skeleton with the standard three queues.
DeadlockReport skeleton() {
  DeadlockReport rep;
  rep.preset = "CP+AP";
  rep.scheduler = "EventSkip";
  rep.trace_size = 100;
  rep.fetch_pos = 50;
  for (const char* name : {"LDQ", "SDQ", "SCQ"}) {
    diag::QueueSnapshot q;
    q.name = name;
    q.capacity = 32;
    rep.queues.push_back(q);
  }
  return rep;
}

diag::CoreSnapshot stalled_core(const std::string& name, StallWhy why,
                                const std::string& op,
                                const std::string& queue) {
  diag::CoreSnapshot c;
  c.name = name;
  c.has_stall = true;
  c.why = why;
  c.op = op;
  c.queue = queue;
  c.trace_pos = 7;
  return c;
}

TEST(DeadlockClassify, PushFullIsQueueFullCycle) {
  auto rep = skeleton();
  rep.cores.push_back(
      stalled_core("AP", StallWhy::PushFull, "pushldq", "LDQ"));
  EXPECT_EQ(diag::classify(rep), DeadlockCause::QueueFullCycle);
  EXPECT_NE(rep.cause_detail.find("LDQ"), std::string::npos);
  EXPECT_NE(rep.cause_detail.find("pushldq"), std::string::npos);
}

TEST(DeadlockClassify, BeodOnEmptyQueueIsEodMismatch) {
  auto rep = skeleton();
  rep.cores.push_back(stalled_core("CP", StallWhy::PopEmpty, "beod", "LDQ"));
  EXPECT_EQ(diag::classify(rep), DeadlockCause::EodMismatch);
  EXPECT_NE(rep.cause_detail.find("end-of-data"), std::string::npos);
}

TEST(DeadlockClassify, PlainPopOnEmptyQueueIsCrossStreamImbalance) {
  auto rep = skeleton();
  rep.cores.push_back(
      stalled_core("CP", StallWhy::PopEmpty, "popldq", "LDQ"));
  EXPECT_EQ(diag::classify(rep), DeadlockCause::CrossStreamImbalance);
  EXPECT_NE(rep.cause_detail.find("popldq"), std::string::npos);
}

TEST(DeadlockClassify, EmptyEventSetWithNoStallIsNoPendingEvent) {
  auto rep = skeleton();
  rep.no_pending_event = true;  // no stalled core snapshots at all
  EXPECT_EQ(diag::classify(rep), DeadlockCause::NoPendingEvent);
  EXPECT_NE(rep.cause_detail.find("no timed event"), std::string::npos);
}

TEST(DeadlockClassify, QueueStallOutranksNoPendingEvent) {
  // Priority: a concrete queue-level stall explains the wedge better than
  // the scheduler-level "event set went empty" observation.
  auto rep = skeleton();
  rep.no_pending_event = true;
  rep.cores.push_back(
      stalled_core("CP", StallWhy::PopEmpty, "popldq", "LDQ"));
  EXPECT_EQ(diag::classify(rep), DeadlockCause::CrossStreamImbalance);
}

TEST(DeadlockClassify, InFlightHeadIsUnknownWithWatchdogHint) {
  auto rep = skeleton();
  rep.cores.push_back(stalled_core("SS", StallWhy::InFlight, "ld", ""));
  EXPECT_EQ(diag::classify(rep), DeadlockCause::Unknown);
  EXPECT_NE(rep.cause_detail.find("watchdog_cycles"), std::string::npos);
}

TEST(DeadlockReport, SummaryKeepsTheHistoricalPrefix) {
  // Pre-existing tests and scripts match on this prefix; the classified
  // cause extends it, never replaces it.
  auto rep = skeleton();
  rep.last_progress_cycle = 42;
  diag::classify(rep);
  EXPECT_EQ(rep.summary().rfind("machine deadlock: no progress since cycle",
                                0),
            0u);
  const diag::DeadlockError err(rep);
  EXPECT_EQ(std::string(err.what()), err.report().summary());
}

// ---- end-to-end: hand-broken kernels through the timing machine ------------

// Runs `m.run()` expecting a DeadlockError; returns its report.
template <class Fn>
DeadlockReport expect_deadlock(Fn&& run) {
  try {
    run();
  } catch (const diag::DeadlockError& e) {
    return e.report();
  }
  ADD_FAILURE() << "machine completed without deadlocking";
  return {};
}

TEST(DeadlockE2E, UnmatchedPopClassifiesAsCrossStreamImbalance) {
  // The machine_test watchdog kernel: a POPLDQ with no matching push.
  auto prog = isa::assemble("popldq r1\nhalt\n");
  prog.code[0].ann.stream = Stream::Compute;
  prog.code[1].ann.stream = Stream::Access;
  sim::Trace trace;
  trace.push_back({0, 1, 0, 0});
  trace.push_back({1, 1, 0, 0});
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 2000;
  const auto rep = expect_deadlock([&] {
    machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
    (void)m.run();
  });
  EXPECT_EQ(rep.cause, DeadlockCause::CrossStreamImbalance);
  EXPECT_EQ(rep.preset, "CP+AP");
  ASSERT_EQ(rep.queues.size(), 3u);
  EXPECT_EQ(rep.queues[0].name, "LDQ");
  EXPECT_EQ(rep.queues[0].size, 0u);
  // The stalled consumer is visible with its op and queue.
  bool found = false;
  for (const auto& c : rep.cores)
    if (c.has_stall && c.why == StallWhy::PopEmpty) {
      EXPECT_EQ(c.op, "popldq");
      EXPECT_EQ(c.queue, "LDQ");
      found = true;
    }
  EXPECT_TRUE(found);
  // The flight recorder tail made it into the report and ends with the
  // deadlock marker.
  ASSERT_FALSE(rep.recent.empty());
  EXPECT_EQ(rep.recent.back().kind, StepKind::Deadlock);
}

TEST(DeadlockE2E, BeodWithoutProducerClassifiesAsEodMismatch) {
  // A BEOD guard polling a queue whose producer never signals
  // end-of-data.
  auto prog = isa::assemble("top:\nbeod top\nhalt\n");
  prog.code[0].ann.stream = Stream::Compute;
  prog.code[1].ann.stream = Stream::Access;
  sim::Trace trace;
  trace.push_back({0, 1, 0, 0});
  trace.push_back({1, 1, 0, 0});
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 2000;
  const auto rep = expect_deadlock([&] {
    machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
    (void)m.run();
  });
  EXPECT_EQ(rep.cause, DeadlockCause::EodMismatch);
  EXPECT_NE(rep.cause_detail.find("beod"), std::string::npos);
}

TEST(DeadlockE2E, BatchBeyondQueueCapacityClassifiesAsQueueFullCycle) {
  // The sequential batch-overflow layout: 100 pushes race ahead of the
  // first pop and wedge the 32-entry LDQ (the kernel behind
  // HandDecoupled.SequentialBatchBeyondQueueCapacityDeadlocks).
  const char* src = R"(
.text
_start:
  li   r5, 100
produce:
  pushldq r5
  addi r5, r5, -1
  bne  r5, r0, produce
consume:
  li   r6, 100
drain:
  popldq r7
  addi r6, r6, -1
  bne  r6, r0, drain
  halt
)";
  auto prog = isa::assemble(src);
  const auto consume = prog.code_index("consume");
  for (std::size_t i = 0; i < prog.code.size(); ++i)
    prog.code[i].ann.stream = Stream::Access;
  for (std::size_t i = consume; i + 1 < prog.code.size(); ++i)
    prog.code[i].ann.stream = Stream::Compute;
  sim::Functional f(prog);
  const auto trace = f.run_trace();
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 20'000;
  const auto rep = expect_deadlock([&] {
    machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
    (void)m.run();
  });
  EXPECT_EQ(rep.cause, DeadlockCause::QueueFullCycle);
  // Evidence: the LDQ really is at capacity, and the producer's push is
  // named as the wedged op.
  ASSERT_EQ(rep.queues.size(), 3u);
  EXPECT_EQ(rep.queues[0].name, "LDQ");
  EXPECT_EQ(rep.queues[0].size, rep.queues[0].capacity);
  EXPECT_NE(rep.cause_detail.find("pushldq"), std::string::npos);
}

TEST(DeadlockE2E, BothSchedulersClassifyIdentically) {
  // EventSkip detects the wedge via the empty event set, Lockstep via the
  // watchdog; the classified cause must not depend on the detection path.
  auto prog = isa::assemble("popldq r1\nhalt\n");
  prog.code[0].ann.stream = Stream::Compute;
  prog.code[1].ann.stream = Stream::Access;
  sim::Trace trace;
  trace.push_back({0, 1, 0, 0});
  trace.push_back({1, 1, 0, 0});
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 2000;
  for (const auto kind : {machine::SchedulerKind::EventSkip,
                          machine::SchedulerKind::Lockstep}) {
    cfg.scheduler = kind;
    const auto rep = expect_deadlock([&] {
      machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
      (void)m.run();
    });
    EXPECT_EQ(rep.cause, DeadlockCause::CrossStreamImbalance)
        << "scheduler " << static_cast<int>(kind);
  }
}

// ---- serialization ---------------------------------------------------------

TEST(DeadlockReport, JsonCarriesCauseQueuesCoresAndRecent) {
  auto prog = isa::assemble("popldq r1\nhalt\n");
  prog.code[0].ann.stream = Stream::Compute;
  prog.code[1].ann.stream = Stream::Access;
  sim::Trace trace;
  trace.push_back({0, 1, 0, 0});
  trace.push_back({1, 1, 0, 0});
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 2000;
  const auto rep = expect_deadlock([&] {
    machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
    (void)m.run();
  });

  const std::string json = rep.to_json();
  for (const char* needle :
       {"\"kind\": \"deadlock\"", "\"cause\": \"cross-stream-imbalance\"",
        "\"queues\": [", "\"cores\": [", "\"recent\": [",
        "\"name\": \"LDQ\"", "\"why\": \"pop-empty\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
  // Balanced braces/brackets — cheap well-formedness proxy (CI runs a
  // real JSON parse over the hisa --deadlock-json artifact).
  int braces = 0, brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  const std::string text = rep.to_text();
  EXPECT_NE(text.find("queues:"), std::string::npos);
  EXPECT_NE(text.find("cores:"), std::string::npos);
  EXPECT_NE(text.find("recorded transitions"), std::string::npos);
}

TEST(FlightRecorderConfig, DepthIsConfigurableThroughMachineConfig) {
  auto prog = isa::assemble("popldq r1\nhalt\n");
  prog.code[0].ann.stream = Stream::Compute;
  prog.code[1].ann.stream = Stream::Access;
  sim::Trace trace;
  trace.push_back({0, 1, 0, 0});
  trace.push_back({1, 1, 0, 0});
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 2000;
  cfg.flight_recorder_depth = 128;
  cfg.scheduler = machine::SchedulerKind::Lockstep;  // one record per cycle
  const auto rep = expect_deadlock([&] {
    machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
    (void)m.run();
  });
  // A >2000-cycle lockstep stall fills any sane ring: the deep recorder
  // must retain its full 128 records.
  EXPECT_EQ(rep.recent.size(), 128u);
}

// ---- quarantine --------------------------------------------------------------

TEST(DiagQuarantine, PathsAreUniquePerCall) {
  const std::string a = diag::quarantine_path_for("/tmp/x/entry.result");
  const std::string b = diag::quarantine_path_for("/tmp/x/entry.result");
  EXPECT_NE(a, b);
  EXPECT_NE(a.find("/tmp/x/entry.result.corrupt."), std::string::npos) << a;
}

TEST(DiagQuarantine, FileMoveKeepsTheSpecimen) {
  char tmpl[] = "/tmp/hidisc-quarantine-XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  const std::string victim = dir + "/damaged.bin";
  std::ofstream(victim, std::ios::binary) << "specimen-bytes";
  const std::string dest = diag::quarantine_file(victim);
  ASSERT_FALSE(dest.empty());
  EXPECT_FALSE(std::filesystem::exists(victim));
  std::ifstream in(dest, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
            "specimen-bytes");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hidisc
