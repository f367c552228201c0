#include "lab/runner.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "lab/result_cache.hpp"
#include "lab/thread_pool.hpp"
#include "pipeline/executor.hpp"

namespace hidisc::lab {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

const CellResult& PlanRun::at(const ExperimentPlan& plan,
                              const std::string& workload,
                              machine::Preset preset,
                              const std::string& tag) const {
  const auto idx = plan.find(workload, preset, tag);
  if (idx < 0)
    throw std::out_of_range("plan " + plan.name + " has no cell " + workload +
                            "/" + machine::preset_name(preset));
  return cells.at(static_cast<std::size_t>(idx));
}

// Thin driver over the artifact pipeline (src/pipeline/): open the result
// cache, submit the plan's cells as one node set, translate the outcome
// into the PlanRun shape.  All scheduling, memoization, cache probing and
// fault isolation lives in the DAG executor.
PlanRun run_plan(const ExperimentPlan& plan, const RunOptions& opt) {
  const auto start = Clock::now();

  std::optional<ResultCache> results;
  if (!opt.cache_dir.empty()) results.emplace(opt.cache_dir);
  pipeline::Pipeline::Stores stores;
  stores.results = results ? &*results : nullptr;
  stores.refresh = opt.refresh;
  pipeline::Pipeline pipe(stores);

  ThreadPool pool(opt.threads);
  const pipeline::Pipeline::CellHook hook =
      [&](std::size_t index, const CellResult&, std::size_t done,
          std::size_t total, bool from_cache) {
        if (opt.on_cell)
          opt.on_cell(plan.cells[index], done, total, from_cache);
      };
  pipeline::Pipeline::Outcome outcome = pipe.run(plan.cells, pool, hook);

  PlanRun run;
  run.cells = std::move(outcome.cells);
  run.nodes = outcome.nodes;
  run.preps = outcome.nodes.compile.rebuilt;
  for (const auto& cell : run.cells) {
    if (!cell.ok()) {
      ++run.failed;
      continue;
    }
    run.cache_hits += cell.from_cache ? 1 : 0;
    run.simulated += cell.from_cache ? 0 : 1;
  }
  {
    double sim_ms = 0.0;
    std::uint64_t sim_cycles = 0;
    for (const auto& cell : run.cells) {
      if (cell.from_cache || !cell.ok()) continue;
      sim_ms += cell.wall_ms;
      sim_cycles += cell.result.cycles;
    }
    if (sim_ms > 0.0)
      run.sim_cycles_per_sec =
          static_cast<double>(sim_cycles) * 1000.0 / sim_ms;
  }
  run.wall_ms = ms_since(start);
  return run;
}

}  // namespace hidisc::lab
