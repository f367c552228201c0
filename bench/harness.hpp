// Shared infrastructure for the paper-reproduction bench binaries.
//
// Each bench binary regenerates one table or figure of the paper
// (DESIGN.md §4 maps experiment ids to binaries) by running a named plan
// through the hidisc-lab orchestrator (src/lab/) and rendering its
// results.  The ablation binaries' sweep points are cells of the
// ablation-* plans, tagged with their axis value; rows() picks them out.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "lab/runner.hpp"
#include "lab/thread_pool.hpp"
#include "stats/table.hpp"

namespace hidisc::bench {

// Lab run options shared by the bench binaries: thread count from
// $HILAB_THREADS (default: all cores), persistent cache from
// $HILAB_CACHE_DIR (default: off, so bench runs stay self-contained).
inline lab::RunOptions lab_options() {
  lab::RunOptions opt;
  opt.threads = lab::default_threads();
  if (const char* dir = std::getenv("HILAB_CACHE_DIR")) opt.cache_dir = dir;
  return opt;
}

// Runs `plan` with lab_options() for a table that has no error column:
// a failed cell ends the program.  The run summary goes to stderr, so
// stdout holds only the tables.
inline lab::PlanRun run_checked(const lab::ExperimentPlan& plan) {
  auto run = lab::run_plan(plan, lab_options());
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    if (!run.cells[i].ok()) {
      std::fprintf(stderr, "%s: cell %zu failed: %s\n", plan.name.c_str(), i,
                   run.cells[i].error.c_str());
      std::exit(1);
    }
  std::fprintf(stderr, "[lab] %zu cells: %zu simulated, %zu cached, %.0f ms\n",
               run.cells.size(), run.simulated, run.cache_hits, run.wall_ms);
  return run;
}

// Indices, in plan order, of the cells under `preset` whose tag starts
// with `prefix` (and whose workload is `workload`, when given): the rows
// of one sweep table.
inline std::vector<std::size_t> rows(const lab::ExperimentPlan& plan,
                                     machine::Preset preset,
                                     std::string_view prefix,
                                     std::string_view workload = {}) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const lab::Cell& c = plan.cells[i];
    if (c.preset == preset && c.tag.starts_with(prefix) &&
        (workload.empty() || c.workload.name == workload))
      out.push_back(i);
  }
  return out;
}

// `base` cycles over `r` cycles, formatted for a table.
inline std::string speedup(const machine::Result& base,
                           const machine::Result& r) {
  return stats::Table::num(static_cast<double>(base.cycles) /
                           static_cast<double>(r.cycles));
}

}  // namespace hidisc::bench
