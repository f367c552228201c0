// The traced run: per-layer host time and counts, measured from outside
// the program by timing the calls this file makes into each module's
// public functions.
//
// Plan workloads make two passes over the same inputs:
//   1. lab pass   — lab::run_plan itself, with one span per simulated cell
//                   taken from the on_cell timestamp and CellResult::wall_ms.
//                   Gives the lab.* pool figures and pipeline.sims_run.
//   2. layer pass — re-drives the plan through the calls run_plan hides, in
//                   its order: build -> compile -> result probe -> trace
//                   (store probe, Functional::run_trace, store write) ->
//                   Machine construct/run -> result write.  Phases run over
//                   the same thread count with a barrier between them.
// The fuzz campaign likewise makes a campaign pass (generate + run_oracles
// per kernel) and a layer pass that re-drives run_oracles' steps.
//
// Each pass must reproduce the untraced run's digest.  Spans (name, start,
// end, parent, run id) stay in memory per thread and are written when the
// run ends: a Chrome trace-event file (chrome://tracing) and a self-time
// table.  A span's self time is its duration minus its child spans'.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "compiler/compile.hpp"
#include "compiler/verify.hpp"
#include "fuzz/generator.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "isa/opcode.hpp"
#include "lab/result_cache.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "machine/machine.hpp"
#include "mem/memory_system.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/keys.hpp"
#include "pipeline/trace_store.hpp"
#include "sim/functional.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace lab = hidisc::lab;
namespace fuzz = hidisc::fuzz;
namespace machine = hidisc::machine;
namespace pipeline = hidisc::pipeline;
namespace sim = hidisc::sim;

// Memory accesses replayed per simulated cell for mem.access_ns: enough
// for a stable per-access cost, far fewer than a paper-scale trace holds.
constexpr std::size_t kReplayAccesses = 1u << 20;

// ---------------------------------------------------------------- spans

struct Span {
  std::string_view name;  // "<layer>.<call>"; always a string literal
  std::int64_t start = 0, end = 0;  // steady_ns
  std::int32_t parent = -1;         // index in the same thread's log
  std::int64_t run = -1;            // cell, compile node or kernel index
};

class SpanLog {
 public:
  std::int32_t open(std::string_view name, std::int64_t run) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        Span{name, steady_ns(), 0, stack_.empty() ? -1 : stack_.back(), run});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = steady_ns();
    stack_.pop_back();
  }
  void rename(std::int32_t id, std::string_view name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }
  // A top-level span timed by someone else.
  void add(std::string_view name, std::int64_t start, std::int64_t end,
           std::int64_t run) {
    spans_.push_back(Span{name, start, end, -1, run});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, std::string_view name, std::int64_t run)
      : log_(log), id_(log.open(name, run)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  // Names the span by its outcome once the call has returned.
  void rename(std::string_view name) { log_.rename(id_, name); }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

// Counts taken at the same boundaries as the spans.
struct Counts {
  std::uint64_t trace_entries = 0;
  std::uint64_t machine_runs = 0;
  std::uint64_t event_steps = 0;
  std::uint64_t skipped_cycles = 0;
  std::uint64_t instructions = 0;  // retired by the timed machines
  std::uint64_t result_hits = 0;
  std::uint64_t mem_accesses = 0;
  std::int64_t longest_run_ns = 0;

  Counts& operator+=(const Counts& o) {
    trace_entries += o.trace_entries;
    machine_runs += o.machine_runs;
    event_steps += o.event_steps;
    skipped_cycles += o.skipped_cycles;
    instructions += o.instructions;
    result_hits += o.result_hits;
    mem_accesses += o.mem_accesses;
    longest_run_ns = std::max(longest_run_ns, o.longest_run_ns);
    return *this;
  }
};

struct Worker {
  SpanLog log;
  Counts counts;
};

// A pass: one span log per thread.  Chrome trace pid = `pid`.
struct Pass {
  std::string name;
  int pid = 0;
  std::vector<Worker> workers;
  std::int64_t start = 0, end = 0;

  [[nodiscard]] Counts counts() const {
    Counts c;
    for (const Worker& w : workers) c += w.counts;
    return c;
  }
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(end - start) * 1e-9;
  }
};

// Runs fn(i, worker) for every i in [0, n) over the pass's workers, and
// rethrows the first exception any of them raised.
void parallel_for(Pass& pass, std::size_t n,
                  const std::function<void(std::size_t, Worker&)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> threads;
  for (Worker& w : pass.workers)
    threads.emplace_back([&, wp = &w] {
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i, *wp);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

// Σ duration of every span named `name` over `passes`, in seconds.
double total_s(const std::vector<const Pass*>& passes, std::string_view name) {
  std::int64_t ns = 0;
  for (const Pass* p : passes)
    for (const Worker& w : p->workers)
      for (const Span& s : w.log.spans())
        if (s.name == name) ns += s.end - s.start;
  return static_cast<double>(ns) * 1e-9;
}

// ------------------------------------------------------------ artifacts

std::uint64_t bytes_under(const std::string& dir, std::string_view suffix) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec) &&
        (suffix.empty() || e.path().string().ends_with(suffix)))
      bytes += e.file_size(ec);
  return bytes;
}

std::set<std::string> list_dir(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir))
    names.insert(e.path().filename().string());
  return names;
}

// Returns `dir` to the listing `keep` (removes everything else in it).
void restore_dir(const std::string& dir, const std::set<std::string>& keep) {
  for (const auto& e : fs::directory_iterator(dir))
    if (!keep.count(e.path().filename().string())) fs::remove_all(e.path());
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Pass*>& passes,
                        std::int64_t origin) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const Pass* p : passes) {
    sep();
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << p->pid
        << ", \"args\": {\"name\": \"" << p->name << "\"}}";
    for (std::size_t t = 0; t < p->workers.size(); ++t) {
      const auto& spans = p->workers[t].log.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        sep();
        out << "{\"name\": \"" << s.name << "\", \"cat\": \""
            << s.name.substr(0, s.name.find('.')) << "\", \"ph\": \"X\", "
            << "\"pid\": " << p->pid << ", \"tid\": " << t
            << ", \"ts\": " << lab::format_double(static_cast<double>(s.start - origin) / 1e3)
            << ", \"dur\": " << lab::format_double(static_cast<double>(s.end - s.start) / 1e3)
            << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
            << ", \"run\": " << s.run << "}}";
      }
    }
  }
  out << "\n]}\n";
}

// Per span name: count, total and self time; then self time per layer.
void write_self_time_table(const std::string& path,
                           const std::vector<const Pass*>& passes,
                           const std::string& footer) {
  std::ofstream out(path);
  for (const Pass* p : passes) {
    struct Row {
      std::uint64_t count = 0;
      std::int64_t total = 0, self = 0;
    };
    std::map<std::string_view, Row> rows;
    std::map<std::string_view, std::int64_t> layers;
    std::int64_t all_self = 0;
    for (const Worker& w : p->workers) {
      const auto& spans = w.log.spans();
      std::vector<std::int64_t> child(spans.size(), 0);
      for (const Span& s : spans)
        if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::int64_t self = s.end - s.start - child[i];
        Row& r = rows[s.name];
        ++r.count;
        r.total += s.end - s.start;
        r.self += self;
        layers[s.name.substr(0, s.name.find('.'))] += self;
        all_self += self;
      }
    }
    char line[160];
    out << "# " << p->name << ": wall " << lab::format_double(p->wall_s())
        << " s, " << p->workers.size() << " lane(s)\n";
    std::snprintf(line, sizeof line, "%-34s %9s %12s %12s\n", "span", "count",
                  "total_s", "self_s");
    out << line;
    for (const auto& [name, r] : rows) {
      std::snprintf(line, sizeof line, "%-34s %9llu %12.6f %12.6f\n",
                    std::string(name).c_str(),
                    static_cast<unsigned long long>(r.count),
                    static_cast<double>(r.total) * 1e-9,
                    static_cast<double>(r.self) * 1e-9);
      out << line;
    }
    std::snprintf(line, sizeof line, "\n%-34s %12s %8s\n", "layer", "self_s",
                  "share");
    out << line;
    for (const auto& [layer, self] : layers) {
      std::snprintf(line, sizeof line, "%-34s %12.6f %7.1f%%\n",
                    std::string(layer).c_str(), static_cast<double>(self) * 1e-9,
                    all_self > 0 ? 100.0 * static_cast<double>(self) /
                                       static_cast<double>(all_self)
                                 : 0.0);
      out << line;
    }
    out << "\n";
  }
  out << footer;
}

// ------------------------------------------------------- plan: lab pass

struct LabPass {
  Pass pass;
  lab::PlanRun run;
  std::string digest;
  double cache_mb = 0.0;
};

LabPass lab_pass(const lab::ExperimentPlan& plan, const Options& o) {
  LabPass lp;
  lp.pass.name = "lab pass: lab::run_plan";
  lp.pass.pid = 1;
  std::vector<std::int64_t> finished(plan.cells.size(), 0);
  lab::RunOptions ro;
  ro.threads = kThreads;
  ro.cache_dir = o.cache_dir;
  ro.on_cell = [&](const lab::Cell& cell, std::size_t, std::size_t, bool) {
    finished[static_cast<std::size_t>(&cell - plan.cells.data())] = steady_ns();
  };
  lp.pass.start = steady_ns();
  lp.run = lab::run_plan(plan, ro);
  lp.pass.end = steady_ns();
  lp.cache_mb = static_cast<double>(bytes_under(o.cache_dir, "")) / 1e6;

  // Each simulated cell's span goes to the first lane free at its start,
  // so the lanes show pool occupancy.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    if (!lp.run.cells[i].from_cache && lp.run.cells[i].ok()) order.push_back(i);
  const auto start_of = [&](std::size_t i) {
    return finished[i] - static_cast<std::int64_t>(lp.run.cells[i].wall_ms * 1e6);
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return start_of(a) < start_of(b); });
  std::vector<std::int64_t> lane_free;
  for (const std::size_t i : order) {
    std::size_t lane = 0;
    while (lane < lane_free.size() && lane_free[lane] > start_of(i)) ++lane;
    if (lane == lane_free.size()) {
      lane_free.push_back(0);
      lp.pass.workers.emplace_back();
    }
    lane_free[lane] = finished[i];
    lp.pass.workers[lane].log.add("lab.sim_cell", start_of(i), finished[i],
                                  static_cast<std::int64_t>(i));
  }
  std::vector<machine::Result> results;
  for (const auto& c : lp.run.cells) results.push_back(c.result);
  lp.digest = results_digest(results);
  return lp;
}

// ----------------------------------------------------- plan: layer pass

struct CompileJob {
  lab::WorkloadSpec spec;
  hidisc::compiler::CompileOptions options;
  hidisc::compiler::Compilation comp;
  std::vector<std::uint8_t> image[2];  // indexed by pipeline::Mode
  std::string error;
  [[nodiscard]] const hidisc::isa::Program& binary(pipeline::Mode m) const {
    return m == pipeline::Mode::Separated ? comp.separated : comp.original;
  }
};

struct TraceJob {
  std::size_t compile = 0;
  pipeline::Mode mode = pipeline::Mode::Original;
  sim::Trace trace;
  std::string error;
};

struct CellJob {
  std::size_t compile = 0;
  pipeline::Mode mode = pipeline::Mode::Original;
  std::string key;
  machine::Result result;
  bool hit = false;
  std::size_t owner = 0;  // first cell with this key; it simulates
  std::size_t trace = 0;  // TraceJob index (owners that missed)
  std::string error;
};

struct LayerPass {
  Pass pass;
  std::string digest;
  std::vector<bool> failed;  // per cell or kernel
  double mem_access_ns = 0.0;
};

std::uint64_t count_failed(const std::vector<bool>& failed) {
  return static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), true));
}

constexpr std::size_t mode_index(pipeline::Mode m) {
  return m == pipeline::Mode::Separated ? 1 : 0;
}

LayerPass plan_layer_pass(const lab::ExperimentPlan& plan, const Options& o) {
  LayerPass lp;
  lp.pass.name = "layer pass: build/compile/trace/machine calls";
  lp.pass.pid = 2;
  lp.pass.workers.resize(static_cast<std::size_t>(kThreads));
  const lab::ResultCache results(o.cache_dir);
  const pipeline::TraceStore traces(o.cache_dir);

  std::vector<CompileJob> compiles;
  std::vector<CellJob> cells(plan.cells.size());
  {
    std::map<std::string, std::size_t> by_key;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      const lab::Cell& c = plan.cells[i];
      const std::string key = pipeline::compile_key(c.workload, c.compile);
      const auto [it, fresh] = by_key.emplace(key, compiles.size());
      if (fresh) compiles.push_back(CompileJob{c.workload, c.compile, {}, {}, {}});
      cells[i].compile = it->second;
      cells[i].mode = pipeline::mode_for(c.preset);
    }
  }

  lp.pass.start = steady_ns();
  parallel_for(lp.pass, compiles.size(), [&](std::size_t i, Worker& w) {
    CompileJob& job = compiles[i];
    const auto run = static_cast<std::int64_t>(i);
    const Scoped node(w.log, "pipeline.compile_node", run);
    try {
      hidisc::workloads::BuiltWorkload built;
      {
        const Scoped s(w.log, "workloads.build", run);
        built = job.spec.build();
      }
      {
        const Scoped s(w.log, "compiler.compile", run);
        job.comp = hidisc::compiler::compile(built.program, job.options);
      }
      const Scoped s(w.log, "isa.encode", run);
      job.image[0] = hidisc::isa::save_program(job.comp.original);
      job.image[1] = hidisc::isa::save_program(job.comp.separated);
    } catch (const std::exception& e) {
      job.error = e.what();
    }
  });

  // Result probe per cell; the first cell of each key that misses owns
  // the simulation, later cells with the key copy its Result.
  std::map<std::string, std::size_t> first_of_key;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellJob& c = cells[i];
    const CompileJob& comp = compiles[c.compile];
    if (!comp.error.empty()) {
      c.error = "prep: " + comp.error;
      continue;
    }
    c.key = pipeline::sim_key(comp.image[mode_index(c.mode)],
                              plan.cells[i].preset, plan.cells[i].config);
    c.owner = first_of_key.emplace(c.key, i).first->second;
  }
  parallel_for(lp.pass, cells.size(), [&](std::size_t i, Worker& w) {
    CellJob& c = cells[i];
    if (!c.error.empty()) return;
    const Scoped s(w.log, "lab.result_read", static_cast<std::int64_t>(i));
    if (auto hit = results.load(c.key)) {
      c.result = hit->result;
      c.hit = true;
      ++w.counts.result_hits;
    }
  });

  std::vector<TraceJob> trace_jobs;
  std::vector<std::size_t> sims;  // owner cells that missed
  {
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> by_binary;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      CellJob& c = cells[i];
      if (!c.error.empty() || c.hit || c.owner != i) continue;
      const auto [it, fresh] =
          by_binary.emplace(std::pair{c.compile, mode_index(c.mode)}, trace_jobs.size());
      if (fresh) trace_jobs.push_back(TraceJob{c.compile, c.mode, {}, {}});
      c.trace = it->second;
      sims.push_back(i);
    }
  }
  parallel_for(lp.pass, trace_jobs.size(), [&](std::size_t i, Worker& w) {
    TraceJob& t = trace_jobs[i];
    const CompileJob& comp = compiles[t.compile];
    const auto run = static_cast<std::int64_t>(i);
    const Scoped node(w.log, "pipeline.trace_node", run);
    const std::string key =
        pipeline::trace_key(comp.image[mode_index(t.mode)], comp.options.max_steps);
    {
      Scoped s(w.log, "pipeline.trace_store_read", run);
      if (auto stored = traces.load(key)) {
        t.trace = std::move(*stored);
        w.counts.trace_entries += t.trace.size();
        return;
      }
      s.rename("pipeline.trace_store_miss");
    }
    try {
      const Scoped s(w.log, "sim.trace", run);
      sim::Functional f(comp.binary(t.mode));
      t.trace = f.run_trace(comp.options.max_steps);
    } catch (const std::exception& e) {
      t.error = e.what();
      return;
    }
    w.counts.trace_entries += t.trace.size();
    const Scoped s(w.log, "pipeline.trace_store_write", run);
    traces.store(key, t.trace);
  });

  parallel_for(lp.pass, sims.size(), [&](std::size_t k, Worker& w) {
    const std::size_t i = sims[k];
    CellJob& c = cells[i];
    const TraceJob& t = trace_jobs[c.trace];
    if (!t.error.empty()) {
      c.error = "trace: " + t.error;
      return;
    }
    const CompileJob& comp = compiles[c.compile];
    const lab::Cell& cell = plan.cells[i];
    const auto run = static_cast<std::int64_t>(i);
    const Scoped node(w.log, "pipeline.sim_node", run);
    try {
      std::unique_ptr<machine::Machine> m;
      {
        const Scoped s(w.log, "machine.construct", run);
        m = std::make_unique<machine::Machine>(comp.binary(c.mode), t.trace,
                                               cell.preset, cell.config);
      }
      const std::int64_t t0 = steady_ns();
      {
        const Scoped s(w.log, "machine.run", run);
        c.result = m->run();
      }
      w.counts.longest_run_ns = std::max(w.counts.longest_run_ns, steady_ns() - t0);
      ++w.counts.machine_runs;
      w.counts.event_steps += m->sched_stats().event_steps;
      w.counts.skipped_cycles += m->sched_stats().skipped_cycles;
      w.counts.instructions += c.result.instructions;
    } catch (const std::exception& e) {
      c.error = std::string("sim: ") + e.what();
      return;
    }
    const Scoped s(w.log, "lab.result_write", run);
    results.store(c.key, lab::CacheEntry{c.result, cell.workload.name,
                                         machine::preset_name(cell.preset),
                                         comp.comp.profile.dynamic_instructions});
  });
  lp.pass.end = steady_ns();

  // Memory-hierarchy cost per access, outside the pass's wall: replay each
  // simulated cell's trace loads and stores through a standalone
  // MemorySystem built from that cell's MemConfig.
  std::vector<std::int64_t> replay_ns(lp.pass.workers.size(), 0);
  parallel_for(lp.pass, sims.size(), [&](std::size_t k, Worker& w) {
    const std::size_t i = sims[k];
    const CellJob& c = cells[i];
    const TraceJob& t = trace_jobs[c.trace];
    if (!t.error.empty()) return;
    const hidisc::isa::Program& bin = compiles[c.compile].binary(c.mode);
    hidisc::mem::MemorySystem memsys(plan.cells[i].config.mem);
    std::uint64_t now = 0;
    std::size_t n = 0;
    const Scoped s(w.log, "mem.replay", static_cast<std::int64_t>(i));
    const std::int64_t t0 = steady_ns();
    for (const sim::TraceEntry& e : t.trace) {
      const auto op = bin.code[static_cast<std::size_t>(e.static_idx)].op;
      if (!hidisc::isa::is_mem(op)) continue;
      memsys.access(e.addr,
                    hidisc::isa::is_store(op) ? hidisc::mem::AccessType::Write
                                              : hidisc::mem::AccessType::Read,
                    now++);
      if (++n == kReplayAccesses) break;
    }
    replay_ns[static_cast<std::size_t>(&w - lp.pass.workers.data())] += steady_ns() - t0;
    w.counts.mem_accesses += n;
  });
  std::int64_t all_replay = 0;
  for (const std::int64_t ns : replay_ns) all_replay += ns;
  const Counts counts = lp.pass.counts();
  if (counts.mem_accesses > 0)
    lp.mem_access_ns =
        static_cast<double>(all_replay) / static_cast<double>(counts.mem_accesses);

  std::vector<machine::Result> out(cells.size());
  lp.failed.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellJob& c = cells[i];
    const CellJob& src = c.hit || !c.error.empty() ? c : cells[c.owner];
    lp.failed[i] = !src.error.empty();
    out[i] = src.result;
  }
  lp.digest = results_digest(out);
  return lp;
}

// ---------------------------------------------------------------- fuzz

struct CampaignPass {
  Pass pass;
  std::string digest;
  std::vector<bool> failed;  // per kernel
};

// generate + run_oracles per kernel: what fuzz::run_campaign does with
// shrinking off.
CampaignPass campaign_pass(const fuzz::CampaignOptions& co) {
  CampaignPass cp;
  cp.pass.name = "campaign pass: generate + fuzz::run_oracles";
  cp.pass.pid = 1;
  cp.pass.workers.resize(1);
  Worker& w = cp.pass.workers[0];
  std::uint64_t dyn = 0;
  cp.pass.start = steady_ns();
  for (int k = 0; k < co.runs; ++k) {
    std::string source;
    {
      const Scoped s(w.log, "fuzz.generate", k);
      fuzz::KernelGen gen(fuzz::derive_seed(co.seed, static_cast<std::uint64_t>(k)));
      source = fuzz::to_source(gen.generate_random(co.limits));
    }
    const Scoped s(w.log, "fuzz.oracle", k);
    const fuzz::OracleReport rep = fuzz::run_oracles(source, co.oracle);
    dyn += rep.dynamic_instructions;
    cp.failed.push_back(!rep.ok());
  }
  cp.pass.end = steady_ns();
  cp.digest = campaign_digest(static_cast<std::uint64_t>(co.runs), dyn,
                              count_failed(cp.failed));
  return cp;
}

// One functional execution under both interpreters, as run_oracles' dual-
// interpreter differential does it.
struct Fsim {
  bool ok = true;     // the threaded interpreter halted cleanly
  bool agree = true;  // ... and the reference interpreter matched it
  sim::Trace trace;
  std::uint64_t mem_digest = 0;
  std::uint64_t instructions = 0;
};

Fsim fsim(const hidisc::isa::Program& bin, std::uint64_t max_steps, Worker& w,
          std::int64_t run) {
  Fsim f;
  std::unique_ptr<sim::Functional> ft;
  {
    const Scoped s(w.log, "sim.trace", run);
    ft = std::make_unique<sim::Functional>(bin);
    try {
      f.trace = ft->run_trace(max_steps);
    } catch (const std::exception&) {
      f.ok = false;
    }
  }
  w.counts.trace_entries += f.trace.size();
  const Scoped s(w.log, "sim.trace_ref", run);
  sim::Functional fr(bin);
  sim::Trace ref;
  bool ref_ok = true;
  try {
    ref = fr.run_trace_ref(max_steps);
  } catch (const std::exception&) {
    ref_ok = false;
  }
  f.agree = f.ok == ref_ok && f.trace.size() == ref.size() &&
            (f.trace.empty() ||
             std::memcmp(f.trace.data(), ref.data(),
                         f.trace.size() * sizeof(sim::TraceEntry)) == 0) &&
            ft->state_digest() == fr.state_digest();
  f.mem_digest = ft->memory().digest();
  f.instructions = ft->instructions();
  return f;
}

// Every preset under both schedulers, plus the two hardware-prefetcher
// variants run_oracles checks; false on a divergence or a short retire.
bool machines_agree(const hidisc::compiler::Compilation& comp,
                    const sim::Trace& orig, const sim::Trace& sep,
                    std::uint64_t watchdog, Worker& w, std::int64_t run) {
  struct Leg {
    const hidisc::isa::Program* bin;
    const sim::Trace* trace;
    machine::Preset preset;
    const char* prefetch;
  };
  const Leg legs[] = {
      {&comp.original, &orig, machine::Preset::Superscalar, nullptr},
      {&comp.original, &orig, machine::Preset::CPCMP, nullptr},
      {&comp.separated, &sep, machine::Preset::CPAP, nullptr},
      {&comp.separated, &sep, machine::Preset::HiDISC, nullptr},
      {&comp.original, &orig, machine::Preset::Superscalar, "ipstride:deg4"},
      {&comp.separated, &sep, machine::Preset::CPAP, "sms:region4"},
  };
  for (const Leg& leg : legs) {
    machine::MachineConfig cfg;
    cfg.watchdog_cycles = watchdog;
    if (leg.prefetch) cfg.mem.prefetch = hidisc::mem::parse_prefetch_spec(leg.prefetch);
    machine::Result r[2];
    for (int k = 0; k < 2; ++k) {
      cfg.scheduler = k == 0 ? machine::SchedulerKind::EventSkip
                             : machine::SchedulerKind::Lockstep;
      std::unique_ptr<machine::Machine> m;
      {
        const Scoped s(w.log, "machine.construct", run);
        m = std::make_unique<machine::Machine>(*leg.bin, *leg.trace, leg.preset, cfg);
      }
      const std::int64_t t0 = steady_ns();
      {
        const Scoped s(w.log, "machine.run", run);
        r[k] = m->run();
      }
      w.counts.longest_run_ns = std::max(w.counts.longest_run_ns, steady_ns() - t0);
      ++w.counts.machine_runs;
      w.counts.event_steps += m->sched_stats().event_steps;
      w.counts.skipped_cycles += m->sched_stats().skipped_cycles;
      w.counts.instructions += r[k].instructions;
    }
    if (!(r[0] == r[1]) || r[0].instructions != leg.trace->size()) return false;
  }
  return true;
}

// run_oracles' steps for one kernel, each call in its own span.  Adds the
// original program's dynamic instruction count to *dyn as run_oracles
// reports it; returns false when any oracle fails.
bool kernel_layers(const fuzz::CampaignOptions& co, int k, Worker& w,
                   std::uint64_t* dyn) {
  const fuzz::OracleOptions& oo = co.oracle;
  const Scoped kernel(w.log, "fuzz.kernel", k);
  std::string source;
  {
    const Scoped s(w.log, "fuzz.generate", k);
    fuzz::KernelGen gen(fuzz::derive_seed(co.seed, static_cast<std::uint64_t>(k)));
    source = fuzz::to_source(gen.generate_random(co.limits));
  }
  try {
    hidisc::isa::Program prog;
    {
      const Scoped s(w.log, "isa.assemble", k);
      prog = hidisc::isa::assemble(source);
    }
    const Fsim orig = fsim(prog, oo.max_steps, w, k);
    if (!orig.agree || !orig.ok) return false;
    *dyn += orig.instructions;

    hidisc::compiler::CompileOptions opts;
    opts.max_steps = oo.max_steps;
    hidisc::compiler::Compilation comp;
    {
      const Scoped s(w.log, "compiler.compile", k);
      comp = hidisc::compiler::compile(prog, opts);
    }
    bool verified = false;
    {
      const Scoped s(w.log, "compiler.verify", k);
      verified = hidisc::compiler::verify_separation(comp.separated).ok();
    }
    const Fsim sep = fsim(comp.separated, oo.max_steps, w, k);
    if (!sep.agree) return false;
    if (oo.run_machines && sep.ok) {
      const Fsim annotated = fsim(comp.original, oo.max_steps, w, k);
      if (!annotated.agree || !annotated.ok) return false;
      if (!machines_agree(comp, annotated.trace, sep.trace, oo.watchdog, w, k))
        return false;
    }
    if (!verified || !sep.ok || sep.mem_digest != orig.mem_digest) return false;
    if (!oo.check_flow_insensitive) return true;

    opts.flow_sensitive_comm = false;
    hidisc::compiler::Compilation fi;
    {
      const Scoped s(w.log, "compiler.compile", k);
      fi = hidisc::compiler::compile(prog, opts);
    }
    {
      const Scoped s(w.log, "compiler.verify", k);
      if (!hidisc::compiler::verify_separation(fi.separated).ok()) return false;
    }
    const Fsim fis = fsim(fi.separated, oo.max_steps, w, k);
    return fis.agree && fis.ok && fis.mem_digest == orig.mem_digest &&
           fi.inserted_pops >= comp.inserted_pops;
  } catch (const std::exception&) {
    return false;
  }
}

LayerPass fuzz_layer_pass(const fuzz::CampaignOptions& co) {
  LayerPass lp;
  lp.pass.name = "layer pass: run_oracles steps";
  lp.pass.pid = 2;
  lp.pass.workers.resize(1);
  std::uint64_t dyn = 0;
  lp.pass.start = steady_ns();
  for (int k = 0; k < co.runs; ++k)
    lp.failed.push_back(!kernel_layers(co, k, lp.pass.workers[0], &dyn));
  lp.pass.end = steady_ns();
  lp.digest = campaign_digest(static_cast<std::uint64_t>(co.runs), dyn,
                              count_failed(lp.failed));
  return lp;
}

// ------------------------------------------------------------- metrics

void put(std::ostringstream& out, bool& first, const char* name, const char* unit,
         double v) {
  out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
      << lab::format_double(v) << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

}  // namespace

int run_traced(const Options& o) {
  if (o.out_dir.empty()) throw std::invalid_argument("traced mode needs --out-dir");
  fs::create_directories(o.out_dir);
  const std::int64_t origin = steady_ns();

  Pass first_pass;
  LayerPass layers;
  std::string untraced_digest;
  // An item (cell or kernel) fails if it failed in either pass.
  std::vector<bool> first_failed;
  // Lab-pass figures (plan workloads only).
  double sims_run = 0, sim_keys = 0, compiles = 0, busy_frac = 0, tail_s = 0,
         sim_mips = 0, cache_mb = 0;

  if (is_plan(o.workload)) {
    const lab::ExperimentPlan plan = bench_plan(o);
    // Both passes start from the cache directory's state on entry: empty
    // for paper-cold, the prepared warm cache otherwise.
    fs::create_directories(o.cache_dir);
    const std::set<std::string> entry_state = list_dir(o.cache_dir);
    LabPass lp = lab_pass(plan, o);
    restore_dir(o.cache_dir, entry_state);
    layers = plan_layer_pass(plan, o);

    const lab::PlanRun& run = lp.run;
    std::set<std::string> keys;
    double instr = 0, sim_ms = 0;
    for (const auto& c : run.cells) {
      if (c.from_cache || !c.ok()) continue;
      keys.insert(c.key);
      instr += static_cast<double>(c.result.instructions);
      sim_ms += c.wall_ms;
    }
    sims_run = static_cast<double>(run.simulated);
    sim_keys = static_cast<double>(keys.size());
    compiles = static_cast<double>(run.preps);
    const auto& n = run.nodes;
    const double node_s = (n.compile.ms_hits + n.compile.ms_rebuilt +
                           n.trace.ms_hits + n.trace.ms_rebuilt +
                           n.sim.ms_hits + n.sim.ms_rebuilt) / 1e3;
    const double wall = lp.pass.wall_s();
    busy_frac = node_s / (kThreads * wall);
    tail_s = wall - node_s / kThreads;
    sim_mips = sim_ms > 0 ? instr / sim_ms / 1e3 : 0.0;
    cache_mb = lp.cache_mb;
    untraced_digest = lp.digest;
    for (const auto& cell : run.cells) first_failed.push_back(!cell.ok());
    first_pass = std::move(lp.pass);
  } else {
    const fuzz::CampaignOptions co = bench_campaign(o);
    CampaignPass cp = campaign_pass(co);
    layers = fuzz_layer_pass(co);
    untraced_digest = cp.digest;
    first_failed = cp.failed;
    first_pass = std::move(cp.pass);
  }

  const std::vector<const Pass*> both = {&first_pass, &layers.pass};
  const std::vector<const Pass*> layer_only = {&layers.pass};
  const Counts c = layers.pass.counts();
  const double run_s = total_s(layer_only, "machine.run");
  const double overhead_s = layers.pass.wall_s() - first_pass.wall_s();
  const bool reproduced = layers.digest == untraced_digest;
  const std::uint64_t attempted = first_failed.size();
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < first_failed.size(); ++i)
    failed += first_failed[i] || layers.failed[i] ? 1 : 0;

  std::ostringstream m;
  bool first = true;
  put(m, first, "workloads.build_s", "s", total_s(layer_only, "workloads.build"));
  put(m, first, "compiler.compile_s", "s", total_s(layer_only, "compiler.compile"));
  put(m, first, "compiler.compiles", "count", compiles);
  put(m, first, "compiler.verify_s", "s", total_s(layer_only, "compiler.verify"));
  put(m, first, "sim.trace_s", "s", total_s(layer_only, "sim.trace"));
  put(m, first, "sim.trace_entries", "count", static_cast<double>(c.trace_entries));
  put(m, first, "sim.trace_mb", "MB",
      static_cast<double>(c.trace_entries * sizeof(sim::TraceEntry)) / 1e6);
  put(m, first, "pipeline.trace_store_write_s", "s",
      total_s(layer_only, "pipeline.trace_store_write"));
  put(m, first, "pipeline.trace_store_read_s", "s",
      total_s(layer_only, "pipeline.trace_store_read"));
  put(m, first, "pipeline.trace_store_mb", "MB",
      static_cast<double>(bytes_under(o.cache_dir, ".trace")) / 1e6);
  put(m, first, "pipeline.sims_run", "count", sims_run);
  put(m, first, "pipeline.sim_keys", "count", sim_keys);
  put(m, first, "lab.result_read_s", "s", total_s(layer_only, "lab.result_read"));
  put(m, first, "lab.result_write_s", "s", total_s(layer_only, "lab.result_write"));
  put(m, first, "lab.result_hits", "count", static_cast<double>(c.result_hits));
  put(m, first, "lab.pool_busy_frac", "fraction", busy_frac);
  put(m, first, "lab.tail_s", "s", tail_s);
  put(m, first, "lab.sim_mips", "Minstr/s", sim_mips);
  put(m, first, "lab.cache_mb", "MB", cache_mb);
  put(m, first, "machine.construct_s", "s", total_s(layer_only, "machine.construct"));
  put(m, first, "machine.runs", "count", static_cast<double>(c.machine_runs));
  put(m, first, "machine.run_s", "s", run_s);
  put(m, first, "machine.longest_run_s", "s",
      static_cast<double>(c.longest_run_ns) * 1e-9);
  put(m, first, "machine.event_steps", "count", static_cast<double>(c.event_steps));
  put(m, first, "machine.skipped_cycles", "count", static_cast<double>(c.skipped_cycles));
  put(m, first, "machine.ns_per_event_step", "ns",
      c.event_steps ? run_s * 1e9 / static_cast<double>(c.event_steps) : 0.0);
  put(m, first, "machine.ns_per_instr", "ns",
      c.instructions ? run_s * 1e9 / static_cast<double>(c.instructions) : 0.0);
  put(m, first, "mem.access_ns", "ns", layers.mem_access_ns);
  put(m, first, "fuzz.generate_s", "s", total_s({&first_pass}, "fuzz.generate"));
  put(m, first, "fuzz.oracle_s", "s", total_s({&first_pass}, "fuzz.oracle"));
  put(m, first, "trace.overhead_s", "s", overhead_s);

  std::ostringstream footer;
  footer << "untraced wall (" << first_pass.name << "): "
         << lab::format_double(first_pass.wall_s()) << " s\n"
         << "traced wall (" << layers.pass.name << "): "
         << lab::format_double(layers.pass.wall_s()) << " s\n"
         << "tracing overhead: " << lab::format_double(overhead_s) << " s\n"
         << "digest untraced " << untraced_digest << ", traced "
         << layers.digest << ": " << (reproduced ? "reproduced" : "MISMATCH")
         << "\n";
  write_chrome_trace(o.out_dir + "/trace.json", both, origin);
  write_self_time_table(o.out_dir + "/layers.txt", both, footer.str());

  std::cout << "{\"digest\": \"" << untraced_digest << "\", \"traced_digest\": \""
            << layers.digest << "\", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {" << m.str()
            << "}}\n";
  return 0;
}

}  // namespace perfbench
