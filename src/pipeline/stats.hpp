// Per-phase node accounting for the artifact pipeline (docs/PIPELINE.md).
//
// Every run of the DAG executor reports, for each node phase, how many
// nodes existed in the graph and what happened to each: served from a
// cache layer (memo / result cache), executed fresh, or executed and
// failed.  The remainder (total - hits - rebuilt - failed) are nodes
// poisoned by an upstream failure.  These counters are the observable
// contract of cache invalidation: a warm run shows sim.rebuilt == 0, and
// a machine-preset-only change re-simulates exactly that preset's keys
// (CI's pipeline-invalidation job asserts both from the JSON export).
#pragma once

#include <cstdint>

namespace hidisc::pipeline {

struct PhaseStats {
  std::uint64_t total = 0;    // nodes of this phase in the graph
  std::uint64_t hits = 0;     // satisfied without executing (memo/store/cache)
  std::uint64_t rebuilt = 0;  // executed this run
  std::uint64_t failed = 0;   // executed and failed

  // Wall time spent in this phase, split by what the time bought: ms_hits
  // covers cache probes that were satisfied without executing (memo lookup,
  // store load, result-cache probe), ms_rebuilt covers fresh executions
  // (failed ones included — the time was spent either way).  Summed across
  // worker threads, so on a pooled run the figures can exceed the run's
  // wall clock; they answer "where did the compute go", not "how long did
  // I wait".
  double ms_hits = 0.0;
  double ms_rebuilt = 0.0;

  // Nodes poisoned by an upstream failure.
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
  PhaseStats compile;  // (workload spec | program, compile options) nodes
  // Always zero: sims stream their own functional runs.  Kept only because
  // perfbench/layers.cpp reads it; deleted at the benchmark re-anchor.
  PhaseStats trace;
  PhaseStats sim;      // (binary image, preset, machine config) nodes

  NodeStats& operator+=(const NodeStats& o) noexcept {
    compile += o.compile;
    trace += o.trace;
    sim += o.sim;
    return *this;
  }
};

}  // namespace hidisc::pipeline
