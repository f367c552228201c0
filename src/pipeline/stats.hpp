// Per-phase task accounting for lab::run_plan (docs/PIPELINE.md).
//
// Every plan run reports, for each task kind, how many tasks the plan had
// and what happened to each: served without executing (a compile task by
// the compile index, a sim task by the result cache or a cell with the
// same sim key), executed fresh, or executed and failed.  The remainder
// (total - hits - rebuilt - failed) are sim tasks poisoned by a failed
// compile.  These counters are the observable contract of cache
// invalidation: a warm run shows compile.rebuilt == 0 and
// sim.rebuilt == 0, and a machine-preset-only change re-simulates exactly
// that preset's keys (the hilab_invalidation ctest entry asserts these
// from the JSON export).
#pragma once

#include <cstdint>

namespace hidisc::pipeline {

struct PhaseStats {
  std::uint64_t total = 0;    // tasks of this kind in the plan
  // Satisfied without executing: a compile task served by the compile
  // index, a sim task by the result cache or a same-key cell.
  std::uint64_t hits = 0;
  std::uint64_t rebuilt = 0;  // executed this run
  std::uint64_t failed = 0;   // executed and failed

  // Wall time spent in this phase, split by what the time bought: ms_hits
  // covers result-cache probes that were satisfied without executing,
  // ms_rebuilt covers fresh executions (failed ones included — the time
  // was spent either way).  Summed across pool threads, so on a pooled
  // run the figures can exceed the run's wall clock; they answer "where
  // did the compute go", not "how long did I wait".
  double ms_hits = 0.0;
  double ms_rebuilt = 0.0;

  // Tasks poisoned by a failed compile.
  [[nodiscard]] std::uint64_t skipped() const noexcept {
    const std::uint64_t used = hits + rebuilt + failed;
    return total > used ? total - used : 0;
  }

  PhaseStats& operator+=(const PhaseStats& o) noexcept {
    total += o.total;
    hits += o.hits;
    rebuilt += o.rebuilt;
    failed += o.failed;
    ms_hits += o.ms_hits;
    ms_rebuilt += o.ms_rebuilt;
    return *this;
  }
};

struct NodeStats {
  PhaseStats compile;  // (workload spec, compile options) tasks
  // Always zero: sims stream their own functional runs.  Kept only because
  // perfbench/layers.cpp reads it; deleted at the benchmark re-anchor.
  PhaseStats trace;
  PhaseStats sim;      // (binary image, preset, machine config) tasks

  NodeStats& operator+=(const NodeStats& o) noexcept {
    compile += o.compile;
    trace += o.trace;
    sim += o.sim;
    return *this;
  }
};

}  // namespace hidisc::pipeline
