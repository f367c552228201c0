#include "lab/runner.hpp"

#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "diag/deadlock.hpp"
#include "isa/encoding.hpp"
#include "lab/fingerprint.hpp"
#include "lab/result_cache.hpp"
#include "lab/thread_pool.hpp"
#include "machine/machine.hpp"
#include "pipeline/keys.hpp"
#include "sim/functional.hpp"

namespace hidisc::lab {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One compile task: a distinct (workload spec, compile options) pair and
// the cells that simulate its binaries.  Once it has run it holds the
// compilation and the sim-key hash state of both binary images, hashed
// once here because a plan has several cells per image.
struct CompileJob {
  std::vector<std::size_t> cells;  // plan indices, in plan order
  compiler::Compilation comp;
  ImageKeyState orig_key, sep_key;
};

// What one run_plan call's tasks share.  Bookkeeping — node stats, the
// sim-key dedup table, the completion count and on_cell — lives behind
// `mu`; compilation, simulation and cache I/O run outside it.
struct Executor {
  Executor(const ExperimentPlan& p, const RunOptions& o,
           const ResultCache* r, ThreadPool& tp, PlanRun& out)
      : plan(p), opt(o), results(r), pool(tp), run(out) {}

  const ExperimentPlan& plan;
  const RunOptions& opt;
  const ResultCache* results;  // null without a cache directory
  ThreadPool& pool;
  PlanRun& run;  // cells[] and nodes

  // The first cell to claim a sim key runs it; later cells with that key
  // wait for its outcome.
  struct KeyState {
    std::size_t first = 0;
    bool done = false;
    std::vector<std::size_t> waiting;
  };

  std::mutex mu;
  std::size_t done = 0;
  std::unordered_map<std::string, KeyState> by_key;

  // Caller holds `mu`.  Also delivers the outcome to the cells waiting on
  // this one's sim key.
  void finish_locked(std::size_t i, bool from_cache) {
    ++done;
    if (opt.on_cell) opt.on_cell(plan.cells[i], done, plan.cells.size(),
                                 from_cache);
    const auto it = by_key.find(run.cells[i].key);
    if (it == by_key.end() || it->second.first != i) return;
    it->second.done = true;
    for (const std::size_t w : std::exchange(it->second.waiting, {}))
      share_locked(i, w);
  }

  // Caller holds `mu`.  Cell `w` has the same sim key as the finished
  // `first`, so it gets the same outcome, errors included, as a hit.
  void share_locked(std::size_t first, std::size_t w) {
    CellResult& r = run.cells[w];
    r = run.cells[first];
    r.from_cache = true;
    r.wall_ms = 0.0;
    r.sim_cycles_per_sec = 0.0;
    ++run.nodes.sim.hits;
    finish_locked(w, /*from_cache=*/true);
  }

  // Compiles the job's workload, then submits one sim task per cell under
  // it.  A failed compile poisons exactly those cells.
  void compile(CompileJob& job) {
    const Cell& first = plan.cells[job.cells.front()];
    const auto start = Clock::now();
    std::string error;
    try {
      // The built workload is a temporary of this statement, freed before
      // the images are encoded.
      job.comp =
          compiler::compile(first.workload.build().program, first.compile);
      job.orig_key = image_key_state(isa::save_program(job.comp.original));
      job.sep_key = image_key_state(isa::save_program(job.comp.separated));
    } catch (const std::exception& e) {
      error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pipeline::PhaseStats& ph = run.nodes.compile;
      ++(error.empty() ? ph.rebuilt : ph.failed);
      ph.ms_rebuilt += ms_since(start);
      if (!error.empty()) {
        for (const std::size_t i : job.cells) {
          run.cells[i].error =
              "prep " + first.workload.name + " failed: " + error;
          run.cells[i].error_class = "prep";
          finish_locked(i, /*from_cache=*/false);
        }
        return;
      }
    }
    for (const std::size_t i : job.cells)
      pool.submit([this, &job, i] { simulate(job, i); });
  }

  // Probes the result cache, and on a miss takes the key's lease, probes
  // again and simulates.  A lease holder waits on nothing, so processes
  // leasing keys in any order cannot deadlock, and a key another process
  // simulated while this one waited for its lease turns into a hit.
  void simulate(const CompileJob& job, std::size_t i) {
    const Cell& cell = plan.cells[i];
    CellResult& r = run.cells[i];
    const bool sep = machine::uses_separated_binary(cell.preset);
    r.key = content_key(sep ? job.sep_key : job.orig_key, cell.preset,
                        cell.config);
    r.orig_dynamic_instructions = job.comp.profile.dynamic_instructions;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto [it, claimed] = by_key.try_emplace(r.key);
      if (!claimed) {
        if (it->second.done)
          share_locked(it->second.first, i);
        else
          it->second.waiting.push_back(i);
        return;
      }
      it->second.first = i;
    }
    const bool probe = results != nullptr && !opt.refresh;
    const auto start = Clock::now();
    std::optional<CacheEntry> hit;
    if (probe) hit = results->load(r.key);
    ResultCache::Lease lease;
    if (results && !hit) {
      lease = results->lease(r.key);
      if (probe) hit = results->load(r.key);
    }
    if (hit) {
      r.result = hit->result;
      r.orig_dynamic_instructions = hit->orig_dynamic_instructions;
      r.from_cache = true;
      std::lock_guard<std::mutex> lock(mu);
      ++run.nodes.sim.hits;
      run.nodes.sim.ms_hits += ms_since(start);
      finish_locked(i, /*from_cache=*/true);
      return;
    }

    const auto sim_start = Clock::now();
    try {
      machine::Machine m(sep ? job.comp.separated : job.comp.original,
                         cell.preset, cell.config, cell.compile.max_steps);
      r.result = m.run();
    } catch (const diag::DeadlockError& e) {
      r.error = e.what();
      r.error_class =
          std::string("deadlock:") + diag::cause_name(e.report().cause);
      r.diagnostic_json = e.report().to_json();
    } catch (const sim::ExecError& e) {
      r.error = "trace " + cell.workload.name + " failed: " + e.what();
      r.error_class = "trace";
    } catch (const std::exception& e) {
      r.error = e.what();
      r.error_class = "sim";
    }
    if (r.ok()) {
      r.wall_ms = ms_since(sim_start);
      if (r.wall_ms > 0.0)
        r.sim_cycles_per_sec =
            static_cast<double>(r.result.cycles) * 1000.0 / r.wall_ms;
      if (results)
        results->store(lease, CacheEntry{r.result, cell.workload.name,
                                         machine::preset_name(cell.preset),
                                         r.orig_dynamic_instructions});
    }
    // Missed probes count with the simulation they led to.
    std::lock_guard<std::mutex> lock(mu);
    ++(r.ok() ? run.nodes.sim.rebuilt : run.nodes.sim.failed);
    run.nodes.sim.ms_rebuilt += ms_since(start);
    finish_locked(i, /*from_cache=*/false);
  }
};

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

PlanRun run_plan(const ExperimentPlan& plan, const RunOptions& opt) {
  const auto start = Clock::now();

  std::optional<ResultCache> results;
  if (!opt.cache_dir.empty()) results.emplace(opt.cache_dir);
  // Started before the jobs exist, so idle workers take the first compiles
  // as they are submitted (in plan order) rather than popping a full queue
  // newest-first; that order keeps a warm paper plan's peak RSS down.
  ThreadPool pool(opt.threads);

  // One compile job per distinct compile key, in first-cell order.
  std::vector<CompileJob> jobs;
  {
    std::unordered_map<std::string, std::size_t> job_of;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      const Cell& cell = plan.cells[i];
      const auto [it, fresh] = job_of.try_emplace(
          pipeline::compile_key(cell.workload, cell.compile), jobs.size());
      if (fresh) jobs.emplace_back();
      jobs[it->second].cells.push_back(i);
    }
  }

  PlanRun run;
  run.cells.resize(plan.cells.size());
  run.nodes.compile.total = jobs.size();
  run.nodes.sim.total = plan.cells.size();
  Executor ex(plan, opt, results ? &*results : nullptr, pool, run);
  for (CompileJob& job : jobs) pool.submit([&ex, &job] { ex.compile(job); });
  pool.wait();

  run.preps = run.nodes.compile.rebuilt;
  double sim_ms = 0.0;
  std::uint64_t sim_cycles = 0;
  for (const auto& cell : run.cells) {
    if (!cell.ok()) {
      ++run.failed;
      continue;
    }
    if (cell.from_cache) {
      ++run.cache_hits;
      continue;
    }
    ++run.simulated;
    sim_ms += cell.wall_ms;
    sim_cycles += cell.result.cycles;
  }
  if (sim_ms > 0.0)
    run.sim_cycles_per_sec = static_cast<double>(sim_cycles) * 1000.0 / sim_ms;
  run.wall_ms = ms_since(start);
  return run;
}

}  // namespace hidisc::lab
