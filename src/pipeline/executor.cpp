#include "pipeline/executor.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "diag/deadlock.hpp"
#include "isa/encoding.hpp"
#include "machine/machine.hpp"
#include "pipeline/keys.hpp"
#include "sim/functional.hpp"

namespace hidisc::pipeline {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

std::shared_ptr<const CompileArtifact> Pipeline::obtain_compile(
    const CompileNode& n, bool* memo_hit) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (const auto it = compile_memo_.find(n.key);
        it != compile_memo_.end()) {
      *memo_hit = true;
      return it->second;
    }
  }
  *memo_hit = false;
  auto art = std::make_shared<CompileArtifact>();
  try {
    if (n.program) {
      art->comp = compiler::compile(*n.program, n.options);
    } else {
      const workloads::BuiltWorkload w = n.spec.build();
      art->comp = compiler::compile(w.program, n.options);
    }
    art->orig_key =
        lab::image_key_state(isa::save_program(art->comp.original));
    art->sep_key = lab::image_key_state(isa::save_program(art->comp.separated));
  } catch (const std::exception& e) {
    art->error = e.what();
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  // First insert wins so every holder of this key shares one artifact.
  return compile_memo_.emplace(n.key, std::move(art)).first->second;
}

// Per-run executor state.  All node bookkeeping (stats, sim-key dedup,
// completion counting) lives behind `mu`; node execution — compilation,
// simulation, disk probes — runs outside it.
struct Pipeline::Exec {
  Pipeline* self = nullptr;
  Outcome* out = nullptr;
  const CellHook* hook = nullptr;
  lab::ThreadPool* pool = nullptr;

  std::mutex mu;
  std::size_t done = 0;
  std::size_t total = 0;
  // Sim key -> the first SimNode that probed it; later probers wait on it.
  std::unordered_map<std::string, SimNode*> first_by_key;

  void submit(std::function<void()> task) { pool->submit(std::move(task)); }

  // Caller holds `mu`.  Also delivers the outcome to the sims waiting on
  // this one's key.
  void finish_cell_locked(SimNode* s, bool from_cache) {
    ++done;
    if (*hook) (*hook)(s->index, s->out, done, total, from_cache);
    s->done = true;
    for (SimNode* w : s->waiting) share_outcome_locked(s, w);
    s->waiting.clear();
  }

  // Caller holds `mu`.  `w` has the same sim key as the finished `first`,
  // so it gets the same outcome, errors included, and counts as a hit.
  void share_outcome_locked(const SimNode* first, SimNode* w) {
    w->out.result = first->out.result;
    w->out.orig_dynamic_instructions = first->out.orig_dynamic_instructions;
    w->out.error = first->out.error;
    w->out.error_class = first->out.error_class;
    w->out.diagnostic_json = first->out.diagnostic_json;
    w->out.from_cache = true;
    ++out->nodes.sim.hits;
    finish_cell_locked(w, /*from_cache=*/true);
  }

  void run_compile(CompileNode* c) {
    bool memo_hit = false;
    const auto start = Clock::now();
    auto art = self->obtain_compile(*c, &memo_hit);
    const double ms = ms_since(start);
    {
      std::lock_guard<std::mutex> lock(mu);
      c->out = art;
      PhaseStats& ph = out->nodes.compile;
      if (!art->ok())
        ++ph.failed;
      else if (memo_hit)
        ++ph.hits;
      else
        ++ph.rebuilt;
      (memo_hit && art->ok() ? ph.ms_hits : ph.ms_rebuilt) += ms;
    }
    if (!art->ok()) {
      // Poison exactly the cells under this compile.
      std::lock_guard<std::mutex> lock(mu);
      for (SimNode* s : c->sims) {
        s->out.error = "prep " + c->display + " failed: " + art->error;
        s->out.error_class = "prep";
        finish_cell_locked(s, /*from_cache=*/false);
      }
      return;
    }
    for (SimNode* s : c->sims)
      submit([this, s] { probe_sim(s); });
  }

  // One task per sim node: probe the result cache, and on a miss take the
  // key's lease, probe again and simulate.  A lease holder waits on
  // nothing, so processes leasing keys in any order cannot deadlock, and
  // a key another process simulated while this one waited for its lease
  // turns into a hit.
  void probe_sim(SimNode* s) {
    const lab::Cell& cell = *s->cell;
    const CompileNode& c = *s->compile;
    s->out.key = sim_key(c.out->image_key(s->mode), cell.preset, cell.config);
    s->out.orig_dynamic_instructions =
        c.out->comp.profile.dynamic_instructions;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto [it, first] = first_by_key.try_emplace(s->out.key, s);
      if (!first) {
        if (it->second->done)
          share_outcome_locked(it->second, s);
        else
          it->second->waiting.push_back(s);
        return;
      }
    }
    const lab::ResultCache* results = self->stores_.results;
    const bool probe = results != nullptr && !self->stores_.refresh;
    const auto start = Clock::now();
    std::optional<lab::CacheEntry> hit;
    if (probe) hit = results->load(s->out.key);
    lab::ResultCache::Lease lease;
    if (results && !hit) {
      lease = results->lease(s->out.key);
      if (probe) hit = results->load(s->out.key);
    }
    if (hit) {
      s->out.result = hit->result;
      s->out.orig_dynamic_instructions = hit->orig_dynamic_instructions;
      s->out.from_cache = true;
      std::lock_guard<std::mutex> lock(mu);
      ++out->nodes.sim.hits;
      out->nodes.sim.ms_hits += ms_since(start);
      finish_cell_locked(s, /*from_cache=*/true);
      return;
    }

    const auto sim_start = Clock::now();
    try {
      machine::Machine m(c.out->binary(s->mode), cell.preset, cell.config,
                         c.options.max_steps);
      s->out.result = m.run();
    } catch (const diag::DeadlockError& e) {
      s->out.error = e.what();
      s->out.error_class =
          std::string("deadlock:") + diag::cause_name(e.report().cause);
      s->out.diagnostic_json = e.report().to_json();
    } catch (const sim::ExecError& e) {
      s->out.error = "trace " + c.display + " failed: " + e.what();
      s->out.error_class = "trace";
    } catch (const std::exception& e) {
      s->out.error = e.what();
      s->out.error_class = "sim";
    }
    if (s->out.ok()) {
      s->out.wall_ms = ms_since(sim_start);
      if (s->out.wall_ms > 0.0)
        s->out.sim_cycles_per_sec =
            static_cast<double>(s->out.result.cycles) * 1000.0 /
            s->out.wall_ms;
      if (results)
        results->store(
            lease, lab::CacheEntry{s->out.result, cell.workload.name,
                                   machine::preset_name(cell.preset),
                                   s->out.orig_dynamic_instructions});
    }
    // Missed probes count with the simulation they led to.
    std::lock_guard<std::mutex> lock(mu);
    ++(s->out.ok() ? out->nodes.sim.rebuilt : out->nodes.sim.failed);
    out->nodes.sim.ms_rebuilt += ms_since(start);
    finish_cell_locked(s, /*from_cache=*/false);
  }
};

Pipeline::Outcome Pipeline::run(const std::vector<lab::Cell>& cells,
                                lab::ThreadPool& pool,
                                const CellHook& on_cell) {
  Graph g = build_graph(cells);
  Outcome out;
  out.cells.resize(cells.size());
  out.nodes.compile.total = g.compiles.size();
  out.nodes.sim.total = g.sims.size();

  Exec exec;
  exec.self = this;
  exec.out = &out;
  exec.hook = &on_cell;
  exec.pool = &pool;
  exec.total = g.sims.size();

  for (CompileNode& c : g.compiles) {
    CompileNode* cp = &c;
    exec.submit([&exec, cp] { exec.run_compile(cp); });
  }
  pool.wait();

  for (SimNode& s : g.sims) out.cells[s.index] = std::move(s.out);
  return out;
}

std::shared_ptr<const CompileArtifact> Pipeline::prepare(
    const isa::Program& program, const compiler::CompileOptions& opt) {
  CompileNode node;
  node.program = &program;
  node.options = opt;
  node.key = compile_key(isa::save_program(program), opt);
  node.display = "program";
  bool hit = false;
  auto art = obtain_compile(node, &hit);
  if (!art->ok())
    throw std::runtime_error("pipeline: compile failed: " + art->error);
  return art;
}

}  // namespace hidisc::pipeline
