#include "pipeline/executor.hpp"

#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "diag/deadlock.hpp"
#include "isa/encoding.hpp"
#include "machine/machine.hpp"
#include "pipeline/keys.hpp"

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
    art->orig_image = isa::save_program(art->comp.original);
    art->sep_image = isa::save_program(art->comp.separated);
    art->orig_key = lab::image_key_state(art->orig_image);
    art->sep_key = lab::image_key_state(art->sep_image);
  } catch (const std::exception& e) {
    art->error = e.what();
  }
  std::lock_guard<std::mutex> lock(memo_mu_);
  // First insert wins so every holder of this key shares one artifact.
  return compile_memo_.emplace(n.key, std::move(art)).first->second;
}

std::shared_ptr<const TraceArtifact> Pipeline::obtain_trace(
    const std::string& key, const isa::Program& binary,
    std::uint64_t max_steps, bool* hit) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (const auto it = trace_memo_.find(key); it != trace_memo_.end()) {
      *hit = true;
      return it->second;
    }
  }
  if (stores_.traces && !stores_.refresh) {
    if (auto stored = stores_.traces->load(key)) {
      auto art = std::make_shared<TraceArtifact>();
      art->trace = std::move(*stored);
      *hit = true;
      std::lock_guard<std::mutex> lock(memo_mu_);
      return trace_memo_.emplace(key, std::move(art)).first->second;
    }
  }
  *hit = false;
  auto art = std::make_shared<TraceArtifact>();
  try {
    sim::Functional f(binary);
    art->trace = f.run_trace(max_steps);
  } catch (const std::exception& e) {
    art->error = e.what();
  }
  if (art->ok() && stores_.traces) stores_.traces->store(key, art->trace);
  std::lock_guard<std::mutex> lock(memo_mu_);
  return trace_memo_.emplace(key, std::move(art)).first->second;
}

// Per-run executor state.  All node bookkeeping (stats, trace demand,
// completion counting) lives behind `mu`; node execution — compilation,
// tracing, simulation, disk probes — runs outside it.
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

  void submit(std::function<void()> task) {
    if (pool)
      pool->submit(std::move(task));
    else
      task();  // inline, depth-first; identical results by construction
  }

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

  void fail_cell(SimNode* s, std::string msg, std::string cls) {
    std::lock_guard<std::mutex> lock(mu);
    s->out.error = std::move(msg);
    s->out.error_class = std::move(cls);
    finish_cell_locked(s, /*from_cache=*/false);
  }

  void run_compile(CompileNode* c) {
    bool memo_hit = false;
    const auto start = Clock::now();
    auto art = self->obtain_compile(*c, &memo_hit);
    const double ms = ms_since(start);
    {
      std::lock_guard<std::mutex> lock(mu);
      c->out = art;
      c->from_memo = memo_hit;
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
      // Poison exactly the cells under this compile; its trace nodes are
      // never demanded (they count as skipped).
      for (SimNode* s : c->sims)
        fail_cell(s, "prep " + c->display + " failed: " + art->error,
                  "prep");
      return;
    }
    for (SimNode* s : c->sims)
      submit([this, s] { probe_sim(s); });
  }

  void probe_sim(SimNode* s) {
    const lab::Cell& cell = *s->cell;
    const CompileArtifact& comp = *s->trace->compile->out;
    const Mode mode = s->trace->mode;
    s->out.key = sim_key(comp.image_key(mode), cell.preset, cell.config);
    s->out.orig_dynamic_instructions = comp.comp.profile.dynamic_instructions;
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
    const Stores& st = self->stores_;
    if (st.results && !st.refresh) {
      const auto start = Clock::now();
      auto hit = st.results->load(s->out.key);
      const double ms = ms_since(start);
      if (hit) {
        s->out.result = hit->result;
        s->out.orig_dynamic_instructions = hit->orig_dynamic_instructions;
        s->out.from_cache = true;
        std::lock_guard<std::mutex> lock(mu);
        ++out->nodes.sim.hits;
        out->nodes.sim.ms_hits += ms;
        finish_cell_locked(s, /*from_cache=*/true);
        return;
      }
      // A missed probe still costs a disk lookup; the node ends up rebuilt.
      std::lock_guard<std::mutex> lock(mu);
      out->nodes.sim.ms_rebuilt += ms;
    }
    // Miss: demand the trace node.  First demander dispatches it; later
    // ones either queue behind it or, when it already completed, go
    // straight to simulation.
    TraceNode* t = s->trace;
    bool dispatch = false;
    std::shared_ptr<const TraceArtifact> ready;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (t->done) {
        ready = t->out;
      } else {
        t->waiting.push_back(s);
        if (!t->started) {
          t->started = true;
          dispatch = true;
        }
      }
    }
    if (dispatch) submit([this, t] { run_trace(t); });
    if (ready) release_sim(s, *ready);
  }

  void run_trace(TraceNode* t) {
    const CompileNode& c = *t->compile;
    // Only the one dispatching call touches the key (`started` gates it).
    t->key = trace_key(c.out->image(t->mode), c.options.max_steps);
    bool hit = false;
    const auto start = Clock::now();
    auto art = self->obtain_trace(t->key, c.out->binary(t->mode),
                                  c.options.max_steps, &hit);
    const double ms = ms_since(start);
    std::vector<SimNode*> waiting;
    {
      std::lock_guard<std::mutex> lock(mu);
      t->out = art;
      t->done = true;
      PhaseStats& ph = out->nodes.trace;
      if (!art->ok())
        ++ph.failed;
      else if (hit)
        ++ph.hits;
      else
        ++ph.rebuilt;
      (hit && art->ok() ? ph.ms_hits : ph.ms_rebuilt) += ms;
      waiting = std::move(t->waiting);
    }
    for (SimNode* s : waiting) release_sim(s, *art);
  }

  void release_sim(SimNode* s, const TraceArtifact& trace) {
    if (!trace.ok()) {
      fail_cell(s,
                "trace " + s->trace->compile->display +
                    " failed: " + trace.error,
                "trace");
      return;
    }
    submit([this, s] { run_sim(s); });
  }

  void run_sim(SimNode* s) {
    const lab::Cell& cell = *s->cell;
    const CompileArtifact& comp = *s->trace->compile->out;
    const auto start = Clock::now();
    try {
      s->out.result =
          machine::run_machine(comp.binary(s->trace->mode),
                               s->trace->out->trace, cell.preset,
                               cell.config);
    } catch (const diag::DeadlockError& e) {
      std::lock_guard<std::mutex> lock(mu);
      ++out->nodes.sim.failed;
      out->nodes.sim.ms_rebuilt += ms_since(start);
      s->out.error = e.what();
      s->out.error_class =
          std::string("deadlock:") + diag::cause_name(e.report().cause);
      s->out.diagnostic_json = e.report().to_json();
      finish_cell_locked(s, /*from_cache=*/false);
      return;
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      ++out->nodes.sim.failed;
      out->nodes.sim.ms_rebuilt += ms_since(start);
      s->out.error = e.what();
      s->out.error_class = "sim";
      finish_cell_locked(s, /*from_cache=*/false);
      return;
    }
    s->out.wall_ms = ms_since(start);
    if (s->out.wall_ms > 0.0)
      s->out.sim_cycles_per_sec =
          static_cast<double>(s->out.result.cycles) * 1000.0 /
          s->out.wall_ms;
    if (self->stores_.results)
      self->stores_.results->store(
          s->out.key,
          lab::CacheEntry{s->out.result, cell.workload.name,
                          machine::preset_name(cell.preset),
                          s->out.orig_dynamic_instructions});
    std::lock_guard<std::mutex> lock(mu);
    ++out->nodes.sim.rebuilt;
    out->nodes.sim.ms_rebuilt += s->out.wall_ms;
    finish_cell_locked(s, /*from_cache=*/false);
  }
};

Pipeline::Outcome Pipeline::run(const std::vector<lab::Cell>& cells,
                                lab::ThreadPool* pool,
                                const CellHook& on_cell) {
  Graph g = build_graph(cells);
  Outcome out;
  out.cells.resize(cells.size());
  out.nodes.compile.total = g.compiles.size();
  out.nodes.trace.total = g.traces.size();
  out.nodes.sim.total = g.sims.size();

  Exec exec;
  exec.self = this;
  exec.out = &out;
  exec.hook = &on_cell;
  exec.pool = pool;
  exec.total = g.sims.size();

  for (CompileNode& c : g.compiles) {
    CompileNode* cp = &c;
    exec.submit([&exec, cp] { exec.run_compile(cp); });
  }
  if (pool) pool->wait();

  for (SimNode& s : g.sims) out.cells[s.index] = std::move(s.out);
  return out;
}

Pipeline::Prepared Pipeline::prepare(const isa::Program& program,
                                     const compiler::CompileOptions& opt,
                                     bool need_orig, bool need_sep) {
  CompileNode node;
  node.program = &program;
  node.options = opt;
  node.key = compile_key(isa::save_program(program), opt);
  node.display = "program";

  Prepared p;
  bool hit = false;
  p.compile = obtain_compile(node, &hit);
  if (!p.compile->ok())
    throw std::runtime_error("pipeline: compile failed: " + p.compile->error);
  const auto trace_for = [&](Mode mode) {
    bool trace_hit = false;
    auto art = obtain_trace(trace_key(p.compile->image(mode), opt.max_steps),
                            p.compile->binary(mode), opt.max_steps,
                            &trace_hit);
    if (!art->ok())
      throw std::runtime_error("pipeline: trace failed: " + art->error);
    return art;
  };
  if (need_orig) p.orig = trace_for(Mode::Original);
  if (need_sep) p.sep = trace_for(Mode::Separated);
  return p;
}

}  // namespace hidisc::pipeline
