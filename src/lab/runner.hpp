// The hidisc-lab experiment runner: a thin driver over the artifact
// pipeline (src/pipeline/, docs/PIPELINE.md).
//
// run_plan submits the plan's cells to the DAG executor, which builds a
// content-addressed graph of typed nodes — compile (one per distinct
// (workload spec, compile options) pair) → sim (one per cell) — and
// executes it over the work-stealing thread pool in pure dependency
// order: a cell simulates the moment its own compilation is ready,
// regardless of what other workloads are still compiling.  Each sim node
// runs its own functional simulation, streamed through the machine (no
// trace is stored).  Sim results persist in the on-disk ResultCache, so a
// machine-preset-only change reruns exactly that preset's sim nodes —
// observable in PlanRun::nodes and the JSON export.  Concurrent run_plan
// calls (threads or processes) sharing a cache directory simulate each
// key once between them: the sim node leases its key in the ResultCache.
//
// Results are returned indexed by cell, so the output is bit-identical
// for any thread count — parallelism changes wall-clock, never numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lab/plan.hpp"
#include "machine/result.hpp"
#include "pipeline/stats.hpp"

namespace hidisc::lab {

struct RunOptions {
  int threads = 1;
  // On-disk result cache directory; empty disables persistent caching
  // (prep memoization within the run still applies).
  std::string cache_dir;
  // Ignore (but still refresh) existing cache entries.
  bool refresh = false;
  // Progress callback, invoked as each cell finishes; serialized by the
  // runner, so it may print.  `done`/`total` count finished/all cells.
  std::function<void(const Cell& cell, std::size_t done, std::size_t total,
                     bool from_cache)>
      on_cell;
};

struct CellResult {
  machine::Result result;
  std::string key;  // 32-hex content key (cache file basename)
  // Dynamic instruction count of the original (unseparated) binary; use
  // for cross-binary IPC normalization.  Served from the cache entry on
  // hits, so it is available even when the compilation was skipped.
  std::uint64_t orig_dynamic_instructions = 0;
  bool from_cache = false;
  double wall_ms = 0.0;  // simulation time; 0 for cache hits
  // Simulator throughput for this cell: simulated cycles per wall-clock
  // second (the number the event-skip scheduler exists to raise); 0 for
  // cache hits.
  double sim_cycles_per_sec = 0.0;

  // Fault isolation: non-empty `error` marks this cell failed (its
  // `result` is meaningless) without poisoning the rest of the run.
  std::string error;            // human-readable failure message
  std::string error_class;      // "prep" / "trace" / "sim" / "deadlock:<cause>"
  std::string diagnostic_json;  // attached DeadlockReport, when one exists

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

struct PlanRun {
  std::vector<CellResult> cells;  // parallel to plan.cells
  std::size_t simulated = 0;      // cells that ran the timing machine
  std::size_t failed = 0;         // cells with a non-empty error slot
  std::size_t cache_hits = 0;
  std::size_t preps = 0;  // compile nodes executed (= nodes.compile.rebuilt)
  // Per-phase node accounting from the DAG executor: how many nodes the
  // graph had, how many were served from a cache layer, how many rebuilt.
  // The cache-invalidation contract is stated in these numbers (e.g. a
  // warm run shows nodes.sim.rebuilt == 0).
  pipeline::NodeStats nodes;
  double wall_ms = 0.0;   // whole-plan wall clock
  // Aggregate simulator throughput: total simulated cycles divided by the
  // summed per-cell simulation time, over the cells that actually ran the
  // timing machine this run (0 when everything came from cache).
  double sim_cycles_per_sec = 0.0;

  [[nodiscard]] bool ok() const noexcept { return failed == 0; }

  [[nodiscard]] const CellResult& at(const ExperimentPlan& plan,
                                     const std::string& workload,
                                     machine::Preset preset,
                                     const std::string& tag = "") const;
};

// Runs every cell of `plan`.  A cell whose prep, functional run or
// simulation fails carries the failure in its error slots (error /
// error_class / diagnostic_json) instead of aborting the run: healthy
// cells complete and export normally.  Only infrastructure-level problems
// (bad plan, broken cache directory) still throw.
[[nodiscard]] PlanRun run_plan(const ExperimentPlan& plan,
                               const RunOptions& opt = {});

}  // namespace hidisc::lab
