#include "lab/runner.hpp"

#include <chrono>
#include <deque>
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
// the cells that simulate its binaries.  It holds the sim-key hash state
// of both binary images, taken once here because a plan has several cells
// per image, and once compiled, the compilation.
struct CompileJob {
  std::string key;                 // pipeline::compile_key
  std::vector<std::size_t> cells;  // plan indices, in plan order
  std::string index_key;  // compile_index_key; empty with the index off
  CompileIndexEntry images;
  bool from_index = false;  // `images` came from the compile index
  std::once_flag once;      // guards the compile
  compiler::Compilation comp;
  std::string error;  // the failed compile's message, else empty
};

// The spec's maker is the registry's for its name.  WorkloadSpec::id()
// names the maker by that name only, so any other spec always compiles.
bool is_registry_spec(const WorkloadSpec& spec) {
  for (const WorkloadSpec& w : workload_registry())
    if (w.name == spec.name) return w.make == spec.make;
  return false;
}

// True when the two cells have one compile key: pipeline::compile_key
// reads WorkloadSpec::id() and the options.  (A -0.0 and a 0.0 miss-rate
// threshold compare equal but are keyed apart; they compile alike.)
bool same_compile(const Cell& a, const Cell& b) {
  return a.workload.name == b.workload.name &&
         a.workload.scale == b.workload.scale &&
         a.workload.seed == b.workload.seed && a.compile == b.compile;
}

std::string cell_key(const CompileIndexEntry& images, const Cell& cell) {
  return content_key(machine::uses_separated_binary(cell.preset)
                         ? images.sep
                         : images.orig,
                     cell.preset, cell.config);
}

// What one run_plan call's tasks share.  Bookkeeping — node stats, the
// sim-key dedup table, the completion count and on_cell — lives behind
// `mu`; compilation, simulation and cache I/O run outside it.
struct Executor {
  Executor(const ExperimentPlan& p, const RunOptions& o,
           const ResultCache* r, const std::optional<std::string>& id,
           ThreadPool& tp, PlanRun& out)
      : plan(p), opt(o), results(r), identity(id), pool(tp), run(out) {}

  const ExperimentPlan& plan;
  const RunOptions& opt;
  const ResultCache* results;  // null without a cache directory
  const std::optional<std::string>& identity;  // null: no compile index
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

  // Caller holds `mu`.  True when cell `i` is the first with its sim key
  // and so produces the key's outcome; otherwise `i` gets the first one's
  // outcome, now or when it is ready.
  bool claim_locked(std::size_t i) {
    const auto [it, claimed] = by_key.try_emplace(run.cells[i].key);
    if (claimed) {
      it->second.first = i;
      return true;
    }
    if (it->second.done)
      share_locked(it->second.first, i);
    else
      it->second.waiting.push_back(i);
    return false;
  }

  // Caller holds `mu`.  Cell `i` is served by a result-cache entry.
  void hit_locked(std::size_t i, const CacheEntry& hit, double ms) {
    CellResult& r = run.cells[i];
    r.result = hit.result;
    r.orig_dynamic_instructions = hit.orig_dynamic_instructions;
    r.from_cache = true;
    ++run.nodes.sim.hits;
    run.nodes.sim.ms_hits += ms;
    finish_locked(i, /*from_cache=*/true);
  }

  // Looks the job up in the compile index, and on a miss compiles it.
  // Either way it then has both image keys and submits one sim task per
  // cell.  A failed compile poisons exactly those cells.
  void compile(CompileJob& job) {
    const Cell& first = plan.cells[job.cells.front()];
    if (results && identity && is_registry_spec(first.workload)) {
      job.index_key = compile_index_key(*identity, job.key);
      const auto start = Clock::now();
      const auto images = opt.refresh ? std::nullopt
                                      : results->load_compile(job.index_key);
      if (images) {
        job.images = *images;
        job.from_index = true;
        std::lock_guard<std::mutex> lock(mu);
        ++run.nodes.compile.hits;
        run.nodes.compile.ms_hits += ms_since(start);
      }
    }
    if (!job.from_index && !compiled(job)) {
      std::lock_guard<std::mutex> lock(mu);
      for (const std::size_t i : job.cells) fail_prep_locked(job, i);
      return;
    }
    for (const std::size_t i : job.cells)
      pool.submit([this, &job, i] { simulate(job, i); });
  }

  // Compiles the job once: in its compile task on an index miss, else for
  // the first of its cells that misses the result cache, while later ones
  // wait here.  An index-served job keeps the image keys of its entry,
  // which the compile rewrites.  True when the compile succeeded.
  bool compiled(CompileJob& job) {
    std::call_once(job.once, [this, &job] {
      const Cell& first = plan.cells[job.cells.front()];
      const auto start = Clock::now();
      CompileIndexEntry images;
      try {
        // The built workload is a temporary of this statement, freed
        // before the images are encoded.
        job.comp =
            compiler::compile(first.workload.build().program, first.compile);
        images = {image_key_state(isa::save_program(job.comp.original)),
                  image_key_state(isa::save_program(job.comp.separated))};
      } catch (const std::exception& e) {
        job.error = e.what();
      }
      if (job.error.empty() && !job.index_key.empty())
        results->store_compile(job.index_key, images);
      if (!job.from_index) job.images = images;
      std::lock_guard<std::mutex> lock(mu);
      pipeline::PhaseStats& ph = run.nodes.compile;
      if (job.from_index) --ph.hits;  // it compiled after all
      ++(job.error.empty() ? ph.rebuilt : ph.failed);
      ph.ms_rebuilt += ms_since(start);
    });
    return job.error.empty();
  }

  // Caller holds `mu`.  Cell `i` fails with its job's compile.
  void fail_prep_locked(const CompileJob& job, std::size_t i) {
    CellResult& r = run.cells[i];
    r.error = "prep " + plan.cells[i].workload.name + " failed: " + job.error;
    r.error_class = "prep";
    finish_locked(i, /*from_cache=*/false);
  }

  // Probes the result cache, and on a miss makes sure its job has
  // compiled, takes the key's lease, probes again and simulates.  A lease
  // holder waits on nothing, so processes leasing keys in any order cannot
  // deadlock, and a key another process simulated while this one waited
  // for its lease turns into a hit.
  void simulate(CompileJob& job, std::size_t i) {
    const Cell& cell = plan.cells[i];
    CellResult& r = run.cells[i];
    const bool sep = machine::uses_separated_binary(cell.preset);
    r.key = cell_key(job.images, cell);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!claim_locked(i)) return;
    }
    const bool probe = results != nullptr && !opt.refresh;
    auto start = Clock::now();
    std::optional<CacheEntry> hit;
    if (probe) hit = results->load(r.key);
    ResultCache::Lease lease;
    if (!hit) {
      const auto compile_start = Clock::now();
      if (!compiled(job)) {
        std::lock_guard<std::mutex> lock(mu);
        fail_prep_locked(job, i);
        return;
      }
      start += Clock::now() - compile_start;  // counted as the compile's
      r.orig_dynamic_instructions = job.comp.profile.dynamic_instructions;
      if (results) {
        lease = results->lease(r.key);
        if (probe) hit = results->load(r.key);
      }
    }
    if (hit) {
      std::lock_guard<std::mutex> lock(mu);
      hit_locked(i, *hit, ms_since(start));
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
  static const std::optional<std::string> none;
  return run_plan(plan, opt,
                  opt.cache_dir.empty() ? none : process_build_identity());
}

PlanRun run_plan(const ExperimentPlan& plan, const RunOptions& opt,
                 const std::optional<std::string>& build_identity) {
  const auto start = Clock::now();

  std::optional<ResultCache> results;
  if (!opt.cache_dir.empty()) results.emplace(opt.cache_dir);
  // The pool runs tasks first in, first out, so compile tasks start in
  // plan order, each ahead of the sim tasks it queues.  Results are indexed
  // by cell: the order changes timing, never a result.
  ThreadPool pool(opt.threads);

  // One compile job per distinct compile key, in first-cell order.  Cells
  // of one job are usually neighbours, so a cell whose workload and
  // options equal its predecessor's joins that job without a key.
  std::deque<CompileJob> jobs;
  {
    std::unordered_map<std::string, std::size_t> job_of;
    std::size_t job = 0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      const Cell& cell = plan.cells[i];
      if (i == 0 || !same_compile(plan.cells[i - 1], cell)) {
        std::string key = pipeline::compile_key(cell.workload, cell.compile);
        const auto [it, fresh] = job_of.try_emplace(key, jobs.size());
        if (fresh) jobs.emplace_back().key = std::move(key);
        job = it->second;
      }
      jobs[job].cells.push_back(i);
    }
  }

  PlanRun run;
  run.cells.resize(plan.cells.size());
  run.nodes.compile.total = jobs.size();
  run.nodes.sim.total = plan.cells.size();
  Executor ex(plan, opt, results ? &*results : nullptr, build_identity, pool,
              run);
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
