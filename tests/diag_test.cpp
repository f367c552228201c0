// Failure forensics: the flight recorder, the DeadlockReport classifier,
// the typed DeadlockError thrown by the timing machines (its JSON pinned
// byte for byte against tests/testdata/deadlock/), and the shared
// quarantine routine the on-disk stores move damaged files aside with.
//
// The classifier is exercised two ways: pure-unit (hand-built
// DeadlockReport snapshots, one per root-cause class) and end-to-end
// (hand-broken kernels driven through machine::Machine until the watchdog
// fires, asserting the caught report carries the expected class and
// evidence).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compile.hpp"
#include "diag/deadlock.hpp"
#include "diag/flight_recorder.hpp"
#include "diag/quarantine.hpp"
#include "fuzz/corpus.hpp"
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

// A hand-broken kernel with its whole trace, run on CP+AP.
struct Kernel {
  isa::Program prog;
  sim::Trace trace;
  machine::MachineConfig cfg;

  [[nodiscard]] DeadlockReport deadlock() const {
    return expect_deadlock([&] {
      machine::Machine m(prog, trace, machine::Preset::CPAP, cfg);
      (void)m.run();
    });
  }
};

// The machine_test watchdog kernel: a POPLDQ with no matching push.
Kernel unmatched_pop_kernel() {
  Kernel k;
  k.prog = isa::assemble("popldq r1\nhalt\n");
  k.prog.code[0].ann.stream = Stream::Compute;
  k.prog.code[1].ann.stream = Stream::Access;
  k.trace.push_back({0, 1, 0, 0});
  k.trace.push_back({1, 1, 0, 0});
  k.cfg.watchdog_cycles = 2000;
  return k;
}

// A BEOD guard polling a queue whose producer never signals end-of-data.
Kernel beod_kernel() {
  Kernel k;
  k.prog = isa::assemble("top:\nbeod top\nhalt\n");
  k.prog.code[0].ann.stream = Stream::Compute;
  k.prog.code[1].ann.stream = Stream::Access;
  k.trace.push_back({0, 1, 0, 0});
  k.trace.push_back({1, 1, 0, 0});
  k.cfg.watchdog_cycles = 2000;
  return k;
}

// The sequential batch-overflow layout: 100 pushes race ahead of the first
// pop and wedge the 32-entry LDQ (the kernel behind
// HandDecoupled.SequentialBatchBeyondQueueCapacityDeadlocks).
Kernel batch_overflow_kernel() {
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
  Kernel k;
  k.prog = isa::assemble(src);
  const auto consume = k.prog.code_index("consume");
  for (std::size_t i = 0; i < k.prog.code.size(); ++i)
    k.prog.code[i].ann.stream = Stream::Access;
  for (std::size_t i = consume; i + 1 < k.prog.code.size(); ++i)
    k.prog.code[i].ann.stream = Stream::Compute;
  sim::Functional f(k.prog);
  k.trace = f.run_trace();
  k.cfg.watchdog_cycles = 20'000;
  return k;
}

TEST(DeadlockE2E, UnmatchedPopClassifiesAsCrossStreamImbalance) {
  const auto rep = unmatched_pop_kernel().deadlock();
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
  const auto rep = beod_kernel().deadlock();
  EXPECT_EQ(rep.cause, DeadlockCause::EodMismatch);
  EXPECT_NE(rep.cause_detail.find("beod"), std::string::npos);
}

TEST(DeadlockE2E, BatchBeyondQueueCapacityClassifiesAsQueueFullCycle) {
  const auto rep = batch_overflow_kernel().deadlock();
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
  auto k = unmatched_pop_kernel();
  for (const auto kind : {machine::SchedulerKind::EventSkip,
                          machine::SchedulerKind::Lockstep}) {
    k.cfg.scheduler = kind;
    EXPECT_EQ(k.deadlock().cause, DeadlockCause::CrossStreamImbalance)
        << "scheduler " << static_cast<int>(kind);
  }
}

// ---- serialization ---------------------------------------------------------

TEST(DeadlockReport, JsonCarriesCauseQueuesCoresAndRecent) {
  const auto rep = unmatched_pop_kernel().deadlock();

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

// ---- pinned reports ----------------------------------------------------------
//
// Each report's to_json() (plus the newline `hisa --deadlock-json` ends the
// file with) must equal a fixture under tests/testdata/deadlock/ byte for
// byte: the flight-recorder tail, the snapshots and the cause all included.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void expect_pinned(const DeadlockReport& rep, const std::string& fixture) {
  const std::string path =
      std::string(HIDISC_TESTDATA_DIR) + "/deadlock/" + fixture;
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing fixture " << path;
  EXPECT_EQ(rep.to_json() + "\n", want) << path;
}

TEST(DeadlockPinned, BatchKernelOnSuperscalarUnderLockstep) {
  // `hisa sim deadlock-batch.s --machine ss --lockstep --watchdog 1`, the
  // command ctest's cli_sim_deadlock_exit3 compares against the same
  // fixture: a streamed machine over the original binary.
  const auto prog = isa::assemble(
      read_file(std::string(HIDISC_TESTDATA_DIR) + "/deadlock-batch.s"));
  const auto comp = compiler::compile(prog);
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = 1;
  cfg.scheduler = machine::SchedulerKind::Lockstep;
  expect_pinned(expect_deadlock([&] {
                  (void)machine::run_machine(
                      comp.original, machine::Preset::Superscalar, cfg);
                }),
                "batch-ss-lockstep.json");
  // Under EventSkip the same watchdog never fires: a miss is one skipped
  // step, so the stalled-step floor is never reached.
  cfg.scheduler = machine::SchedulerKind::EventSkip;
  EXPECT_GT(machine::run_machine(comp.original, machine::Preset::Superscalar,
                                 cfg)
                .cycles,
            0u);
}

TEST(DeadlockPinned, ScqOverflowCorpusKernelOnCpApUnderBothSchedulers) {
  // The corpus entry with its stream tags, on its whole trace, under the
  // fuzz oracle's watchdog.
  const auto repro = fuzz::load_repro(std::string(HIDISC_CORPUS_DIR) +
                                      "/deadlock-scq-overflow.s");
  auto prog = isa::assemble(repro.source);
  std::size_t i = 0;
  for (const char ch : repro.streams)
    if (ch == 'A' || ch == 'C')
      prog.code.at(i++).ann.stream =
          ch == 'A' ? Stream::Access : Stream::Compute;
  ASSERT_EQ(i, prog.code.size());
  sim::Functional f(prog);
  const auto trace = f.run_trace();
  machine::MachineConfig cfg;
  cfg.watchdog_cycles = fuzz::OracleOptions{}.watchdog;
  for (const auto& [kind, fixture] :
       {std::pair{machine::SchedulerKind::EventSkip,
                  "scq-overflow-cpap-eventskip.json"},
        std::pair{machine::SchedulerKind::Lockstep,
                  "scq-overflow-cpap-lockstep.json"}}) {
    cfg.scheduler = kind;
    expect_pinned(expect_deadlock([&] {
                    machine::Machine m(prog, trace, machine::Preset::CPAP,
                                       cfg);
                    (void)m.run();
                  }),
                  fixture);
  }
}

TEST(DeadlockPinned, HandBrokenKernels) {
  expect_pinned(unmatched_pop_kernel().deadlock(), "e2e-unmatched-pop.json");
  expect_pinned(beod_kernel().deadlock(), "e2e-beod-no-producer.json");
  expect_pinned(batch_overflow_kernel().deadlock(),
                "e2e-batch-overflow.json");
}

TEST(DeadlockPinned, LockstepShadowReportsItsReferenceMachine) {
  // Under HIDISC_LOCKSTEP=1 an event-skip run first runs its lock-stepped
  // reference; that machine wedges first, so its report is the one that
  // escapes: the same JSON as a plain Lockstep run.
  auto k = unmatched_pop_kernel();
  k.cfg.scheduler = machine::SchedulerKind::Lockstep;
  const std::string want = k.deadlock().to_json();
  k.cfg.scheduler = machine::SchedulerKind::EventSkip;
  ASSERT_EQ(::setenv("HIDISC_LOCKSTEP", "1", 1), 0);
  const std::string got = k.deadlock().to_json();
  ::unsetenv("HIDISC_LOCKSTEP");
  EXPECT_NE(got.find("\"scheduler\": \"Lockstep\""), std::string::npos);
  EXPECT_EQ(got, want);
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
