// The hidisc-lab experiment runner (docs/LAB.md, docs/PIPELINE.md).
//
// run_plan runs a plan's cells as two kinds of task over the lab thread
// pool, whose FIFO queue the calling thread also serves:
//
//   compile  one per distinct (workload spec, compile options) pair
//            (pipeline::compile_key).  It looks the pair up in the cache
//            directory's compile index (result_cache.hpp): a hit gives
//            both binary images' hashes without building or compiling.
//            On a miss it builds the workload, compiles it, hashes both
//            images and records them in the index.  Either way it then
//            submits one sim task per cell under it;
//   sim      one per cell, warm or cold: computes its sim key and probes
//            the on-disk ResultCache.  On a miss it first compiles its
//            job if the index served it (once per job; later misses wait
//            for that compile), then takes the key's lease, probes again
//            and runs the machine, which streams its own functional run
//            (no trace is stored).
//
// A cell simulates the moment its own compilation is ready, regardless of
// what other workloads are still compiling.  Cells with equal sim keys
// simulate once per run: the first to claim the key runs, later ones wait
// for its outcome.  Sim results persist in the ResultCache, so a
// machine-preset-only change reruns exactly that preset's cells —
// observable in PlanRun::nodes and the JSON export.  Concurrent run_plan
// calls (threads or processes) sharing a cache directory simulate each
// key once between them through the lease.
//
// Results are returned indexed by cell, so the output is bit-identical
// for any thread count — parallelism changes wall-clock, never numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lab/plan.hpp"
#include "machine/result.hpp"
#include "pipeline/stats.hpp"

namespace hidisc::lab {

struct RunOptions {
  int threads = 1;  // threads that run tasks, the caller included
  // On-disk result cache directory; empty disables persistent caching
  // (cells with equal sim keys still simulate once within the run).
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
  std::size_t preps = 0;  // compilations run (= nodes.compile.rebuilt)
  // Per-task accounting: how many compile and sim tasks the plan had, how
  // many were served without running (compile tasks by the compile index,
  // sim tasks by the result cache or a same-key cell), how many ran.  The
  // cache-invalidation contract is stated in these numbers (e.g. a warm
  // run shows nodes.compile.rebuilt == 0 and nodes.sim.rebuilt == 0).
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
// run_plan whose compile index is keyed by `build_identity`
// (fingerprint.hpp); nullopt turns the index off.  The overload above
// passes this process's identity when there is a cache directory.
[[nodiscard]] PlanRun run_plan(
    const ExperimentPlan& plan, const RunOptions& opt,
    const std::optional<std::string>& build_identity);

}  // namespace hidisc::lab
