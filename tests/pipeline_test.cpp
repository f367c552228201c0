// Pipeline tests (src/pipeline/): content keys — each input dimension
// perturbs exactly the downstream hashes it should — the TraceStore's
// round-trip/corruption contract (perfbench still uses it), and
// warm/partial invalidation through lab::run_plan's per-phase task stats.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/encoding.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "pipeline/keys.hpp"
#include "pipeline/trace_store.hpp"
#include "sim/functional.hpp"

namespace {

using namespace hidisc;
namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_((fs::temp_directory_path() /
               (std::string("hidisc_pipeline_test_") + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

compiler::Compilation compile_spec(const char* name) {
  const auto w = lab::spec(name, workloads::Scale::Test).build();
  return compiler::compile(w.program);
}

bool traces_equal(const sim::Trace& a, const sim::Trace& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

// ---- key sensitivity -------------------------------------------------------

TEST(PipelineKeys, CompileKeyTracksWorkloadIdentityAndOptions) {
  const compiler::CompileOptions opt;
  const auto pointer = lab::spec("Pointer", workloads::Scale::Test);
  const auto update = lab::spec("Update", workloads::Scale::Test);

  const std::string k = pipeline::compile_key(pointer, opt);
  EXPECT_EQ(k.size(), 32u);
  // Stable for the same inputs; different kernel or scale -> different key.
  EXPECT_EQ(k, pipeline::compile_key(pointer, opt));
  EXPECT_NE(k, pipeline::compile_key(update, opt));
  EXPECT_NE(k, pipeline::compile_key(
                   lab::spec("Pointer", workloads::Scale::Paper), opt));

  compiler::CompileOptions budget = opt;
  budget.max_steps = opt.max_steps / 2;
  EXPECT_NE(k, pipeline::compile_key(pointer, budget));
}

TEST(PipelineKeys, KernelTextPerturbsEveryDownstreamKey) {
  const auto a = compile_spec("Pointer");
  const auto b = compile_spec("Update");
  const auto img_a = isa::save_program(a.original);
  const auto img_b = isa::save_program(b.original);
  ASSERT_NE(img_a, img_b);

  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  EXPECT_NE(pipeline::trace_key(img_a, steps),
            pipeline::trace_key(img_b, steps));
  const machine::MachineConfig cfg;
  EXPECT_NE(pipeline::sim_key(img_a, machine::Preset::Superscalar, cfg),
            pipeline::sim_key(img_b, machine::Preset::Superscalar, cfg));
}

TEST(PipelineKeys, SeparatorModeSelectsADistinctBinary) {
  const auto comp = compile_spec("Pointer");
  const auto orig = isa::save_program(comp.original);
  const auto sep = isa::save_program(comp.separated);
  ASSERT_NE(orig, sep);

  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  // Original and separated binaries never share stored traces or sims.
  EXPECT_NE(pipeline::trace_key(orig, steps),
            pipeline::trace_key(sep, steps));
  const machine::MachineConfig cfg;
  EXPECT_NE(pipeline::sim_key(orig, machine::Preset::HiDISC, cfg),
            pipeline::sim_key(sep, machine::Preset::HiDISC, cfg));
}

TEST(PipelineKeys, MachinePresetAndConfigPerturbOnlySimKeys) {
  const auto comp = compile_spec("Pointer");
  const auto img = isa::save_program(comp.original);
  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  const std::string tk = pipeline::trace_key(img, steps);

  const machine::MachineConfig base;
  const std::string sk =
      pipeline::sim_key(img, machine::Preset::Superscalar, base);

  // Preset changes the sim key; the trace key is preset-blind.
  EXPECT_NE(sk, pipeline::sim_key(img, machine::Preset::CPCMP, base));
  EXPECT_EQ(tk, pipeline::trace_key(img, steps));

  // Any config field change (dram latency, watchdog) re-keys the
  // simulation only.
  machine::MachineConfig slow = base;
  slow.mem.dram_latency = 200;
  EXPECT_NE(sk, pipeline::sim_key(img, machine::Preset::Superscalar, slow));
  machine::MachineConfig dog = base;
  dog.watchdog_cycles = 42;
  EXPECT_NE(sk, pipeline::sim_key(img, machine::Preset::Superscalar, dog));
  EXPECT_EQ(tk, pipeline::trace_key(img, steps));
}

TEST(PipelineKeys, PrefetcherConfigPerturbsOnlySimKeys) {
  const auto comp = compile_spec("Pointer");
  const auto img = isa::save_program(comp.original);
  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  const std::string tk = pipeline::trace_key(img, steps);
  const machine::MachineConfig base;
  const std::string sk =
      pipeline::sim_key(img, machine::Preset::Superscalar, base);

  // Enabling a prefetcher, or turning any of its live knobs, re-keys the
  // simulation and nothing upstream (hilab --override '*:prefetch=...'
  // rides this).
  machine::MachineConfig pf = base;
  pf.mem.prefetch = mem::parse_prefetch_spec("ipstride:deg4");
  const std::string pf_sk =
      pipeline::sim_key(img, machine::Preset::Superscalar, pf);
  EXPECT_NE(sk, pf_sk);
  machine::MachineConfig dist = pf;
  dist.mem.prefetch.distance = 2;
  EXPECT_NE(pf_sk, pipeline::sim_key(img, machine::Preset::Superscalar, dist));
  EXPECT_EQ(tk, pipeline::trace_key(img, steps));
  const compiler::CompileOptions opt;
  EXPECT_EQ(pipeline::compile_key(lab::spec("Pointer", workloads::Scale::Test),
                                  opt),
            pipeline::compile_key(lab::spec("Pointer", workloads::Scale::Test),
                                  opt));

  // Knobs of a disabled prefetcher are inert: same sim key, same cache
  // entries.
  machine::MachineConfig idle = base;
  idle.mem.prefetch.degree = 9;
  EXPECT_EQ(sk, pipeline::sim_key(img, machine::Preset::Superscalar, idle));
}

TEST(PipelineKeys, SchedulerKindIsExcludedEverywhere) {
  // Event-skip and lockstep are bit-identical (the HIDISC_LOCKSTEP
  // oracle), so the scheduler must not perturb any node key.
  const auto comp = compile_spec("Pointer");
  const auto img = isa::save_program(comp.original);
  machine::MachineConfig ev, lk;
  ev.scheduler = machine::SchedulerKind::EventSkip;
  lk.scheduler = machine::SchedulerKind::Lockstep;
  EXPECT_EQ(pipeline::sim_key(img, machine::Preset::Superscalar, ev),
            pipeline::sim_key(img, machine::Preset::Superscalar, lk));
}

TEST(PipelineKeys, SimKeyMatchesPreRefactorContentKey) {
  // sim_key must stay byte-for-byte lab::content_key so result caches
  // written before the DAG refactor remain valid.
  const auto comp = compile_spec("Update");
  const machine::MachineConfig cfg;
  for (const auto preset : lab::all_presets()) {
    const auto& bin = machine::uses_separated_binary(preset)
                          ? comp.separated
                          : comp.original;
    EXPECT_EQ(pipeline::sim_key(isa::save_program(bin), preset, cfg),
              lab::content_key(bin, preset, cfg))
        << machine::preset_name(preset);
  }
}

// ---- trace store -----------------------------------------------------------

TEST(TraceStore, RoundTripsATrace) {
  TempDir dir("roundtrip");
  pipeline::TraceStore store(dir.path());
  const auto comp = compile_spec("Pointer");
  sim::Functional f(comp.original);
  const sim::Trace trace = f.run_trace();
  ASSERT_FALSE(trace.empty());

  const std::string key = "0123456789abcdef0123456789abcdef";
  EXPECT_FALSE(store.load(key).has_value());  // cold
  ASSERT_TRUE(store.store(key, trace));
  const auto back = store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(traces_equal(trace, *back));
}

TEST(TraceStore, CorruptedEntryIsQuarantinedNotServed) {
  TempDir dir("bitrot");
  pipeline::TraceStore store(dir.path());
  const auto comp = compile_spec("Pointer");
  const sim::Trace trace = sim::Functional(comp.original).run_trace();
  const std::string key = "feedfacefeedfacefeedfacefeedface";
  ASSERT_TRUE(store.store(key, trace));

  // Flip one byte in the entry payload (past the fixed header).
  const std::string path = dir.path() + "/" + key + ".trace";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char c = 0;
    f.read(&c, 1);
    f.seekp(64);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  EXPECT_FALSE(store.load(key).has_value());
  // The corrupt file was moved aside, so a rerun misses cleanly instead
  // of re-reading the bad bytes.
  EXPECT_FALSE(fs::exists(path));
  bool quarantined = false;
  for (const auto& e : fs::directory_iterator(dir.path()))
    if (e.path().string().find(".corrupt.") != std::string::npos)
      quarantined = true;
  EXPECT_TRUE(quarantined);
}

TEST(TraceStore, ForeignFormatIsAMissNotCorruption) {
  TempDir dir("foreign");
  pipeline::TraceStore store(dir.path());
  const std::string key = "deadbeefdeadbeefdeadbeefdeadbeef";
  const std::string path = dir.path() + "/" + key + ".trace";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a hilab trace";
  }
  // A wrong magic header means "some other format/version": treat as a
  // miss (re-trace and overwrite), don't quarantine what may be someone
  // else's file.
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_TRUE(fs::exists(path));
}

// ---- warm / partial invalidation through the runner ------------------------

lab::ExperimentPlan two_workload_plan() {
  lab::ExperimentPlan plan{"pipe", "pipeline_test plan", {}};
  for (const char* name : {"Pointer", "Update"})
    for (const auto preset : lab::all_presets())
      plan.cells.push_back(lab::Cell{lab::spec(name, workloads::Scale::Test),
                                     preset, {}, {}, ""});
  return plan;
}

TEST(PipelineRunner, WarmRunRebuildsNoNodes) {
  TempDir dir("warm_nodes");
  const auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();

  // A fixed build identity: a test binary that links a library without a
  // build-id has the compile index off (LabCompileIndex.*).
  const auto identity = lab::build_identity({"5eed"});

  const auto cold = lab::run_plan(plan, opt, identity);
  EXPECT_EQ(cold.nodes.compile.total, 2u);
  EXPECT_EQ(cold.nodes.compile.rebuilt, 2u);
  EXPECT_EQ(cold.nodes.sim.total, plan.cells.size());
  EXPECT_EQ(cold.nodes.sim.rebuilt, plan.cells.size());
  // PlanRun's legacy counter is a view of the node stats.
  EXPECT_EQ(cold.preps, cold.nodes.compile.rebuilt);

  // The cache directory holds results and one compile-index entry per
  // compile task, and nothing else.
  std::size_t compile_entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    const auto ext = e.path().extension();
    EXPECT_TRUE(ext == ".result" || ext == ".compile") << e.path();
    compile_entries += ext == ".compile";
  }
  EXPECT_EQ(compile_entries, cold.nodes.compile.total);

  // Every compile task is served by the compile index and every cell is a
  // result-cache hit: no build, no compile, no machine.
  const auto warm = lab::run_plan(plan, opt, identity);
  EXPECT_EQ(warm.nodes.compile.hits, warm.nodes.compile.total);
  EXPECT_EQ(warm.nodes.compile.rebuilt, 0u);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size());
  EXPECT_EQ(warm.nodes.sim.rebuilt, 0u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(warm.cells[i].key, cold.cells[i].key) << i;
}

TEST(PipelineRunner, PresetOnlyChangeResimulatesExactlyThatPreset) {
  TempDir dir("preset_invalidate");
  auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);
  ASSERT_EQ(cold.failed, 0u);

  // Mutate the machine config of the HiDISC cells only (the CI job does
  // the same via hilab --override): their sim keys change and they
  // rerun, and every other cell hits.
  std::size_t mutated = 0;
  for (auto& cell : plan.cells)
    if (cell.preset == machine::Preset::HiDISC) {
      cell.config.mem.dram_latency = 200;
      ++mutated;
    }
  ASSERT_GT(mutated, 0u);

  const auto partial = lab::run_plan(plan, opt);
  EXPECT_EQ(partial.failed, 0u);
  EXPECT_EQ(partial.nodes.sim.rebuilt, mutated);
  EXPECT_EQ(partial.nodes.sim.hits, plan.cells.size() - mutated);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(partial.cells[i].from_cache,
              plan.cells[i].preset != machine::Preset::HiDISC)
        << i;
}

TEST(PipelineRunner, PrefetcherChangeResimulatesExactlyAffectedCells) {
  TempDir dir("prefetch_invalidate");
  auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);
  ASSERT_EQ(cold.failed, 0u);

  // Enable a hardware prefetcher on the CP+AP cells only (what
  // `hilab --override 'CP+AP:prefetch=ipstride:deg4'` does): exactly
  // those cells re-key and rerun, and every other cell hits.
  std::size_t mutated = 0;
  for (auto& cell : plan.cells)
    if (cell.preset == machine::Preset::CPAP) {
      cell.config.mem.prefetch = mem::parse_prefetch_spec("ipstride:deg4");
      ++mutated;
    }
  ASSERT_GT(mutated, 0u);

  const auto partial = lab::run_plan(plan, opt);
  EXPECT_EQ(partial.failed, 0u);
  EXPECT_EQ(partial.nodes.sim.rebuilt, mutated);
  EXPECT_EQ(partial.nodes.sim.hits, plan.cells.size() - mutated);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(partial.cells[i].from_cache,
              plan.cells[i].preset != machine::Preset::CPAP)
        << i;
  // And a warm re-run of the mutated plan is all hits.
  const auto warm = lab::run_plan(plan, opt);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size());
  EXPECT_EQ(warm.nodes.sim.rebuilt, 0u);
}

TEST(PipelineRunner, RefreshBypassesTheResultCacheButStillWritesIt) {
  TempDir dir("refresh");
  const auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);

  lab::RunOptions refresh = opt;
  refresh.refresh = true;
  const auto forced = lab::run_plan(plan, refresh);
  EXPECT_EQ(forced.nodes.sim.rebuilt, plan.cells.size());
  EXPECT_EQ(forced.nodes.sim.hits, 0u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_TRUE(lab::results_identical(cold.cells[i].result,
                                       forced.cells[i].result));

  // The refreshed entries were re-published: a follow-up warm run hits.
  const auto warm = lab::run_plan(plan, opt);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size());
}

TEST(PipelineRunner, OneSimulationPerSimKey) {
  // The test-scale paper plan repeats 8 cells (the Fig. 10 12/120 points
  // are the Table 1 defaults).  Each distinct sim key simulates once, at
  // every thread count, with or without a result cache, and the repeats
  // get the first cell's Result.
  const auto plan = lab::plan_paper(workloads::Scale::Test);
  std::vector<lab::CellResult> reference;
  for (const int threads : {1, 4}) {
    for (const bool cached : {false, true}) {
      TempDir dir(cached ? "dedup_cache" : "dedup_none");
      lab::RunOptions opt;
      opt.threads = threads;
      if (cached) opt.cache_dir = dir.path();
      const auto run = lab::run_plan(plan, opt);
      const std::string where = std::to_string(threads) + " threads, " +
                                (cached ? "fresh cache" : "no cache");
      ASSERT_TRUE(run.ok()) << where;
      EXPECT_EQ(run.simulated, 68u) << where;
      EXPECT_EQ(run.cache_hits, plan.cells.size() - 68u) << where;
      EXPECT_EQ(run.nodes.sim.rebuilt, 68u) << where;
      EXPECT_EQ(run.nodes.sim.hits, plan.cells.size() - 68u) << where;
      if (reference.empty()) {
        reference = run.cells;
        continue;
      }
      for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        EXPECT_EQ(run.cells[i].key, reference[i].key) << where;
        EXPECT_TRUE(lab::results_identical(run.cells[i].result,
                                           reference[i].result))
            << where << ", cell " << i;
      }
    }
  }
}

TEST(PipelineRunner, EveryCellKeyIsItsContentKey) {
  // Sim keys continue from each image's hash state (hashed once per
  // compile task), so check them against the from-scratch key over a plan that varies the
  // preset, the config and the binary.
  const auto plan = lab::plan_fig10(workloads::Scale::Test);
  lab::RunOptions opt;
  opt.threads = 4;
  const auto run = lab::run_plan(plan, opt);
  ASSERT_TRUE(run.ok());
  std::map<std::string, compiler::Compilation> comps;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const lab::Cell& cell = plan.cells[i];
    auto it = comps.find(cell.workload.name);
    if (it == comps.end())
      it = comps
               .emplace(cell.workload.name,
                        compiler::compile(cell.workload.build().program,
                                          cell.compile))
               .first;
    const auto& bin = machine::uses_separated_binary(cell.preset)
                          ? it->second.separated
                          : it->second.original;
    EXPECT_EQ(run.cells[i].key,
              lab::content_key(bin, cell.preset, cell.config))
        << "cell " << i;
  }
}

TEST(PipelineRunner, RepeatedSimKeySharesAFailure) {
  // An absurd watchdog under Lockstep wedges the simulation
  // deterministically; the repeat of that cell waits on the first and
  // gets the same error.
  lab::ExperimentPlan plan{"dup", "repeated failing cell", {}};
  machine::MachineConfig bad;
  bad.watchdog_cycles = 1;
  bad.scheduler = machine::SchedulerKind::Lockstep;
  for (int i = 0; i < 2; ++i)
    plan.cells.push_back(lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                                   machine::Preset::Superscalar, bad, {}, ""});
  lab::RunOptions opt;
  opt.threads = 2;
  const auto run = lab::run_plan(plan, opt);
  EXPECT_EQ(run.failed, 2u);
  EXPECT_EQ(run.nodes.sim.failed, 1u);
  EXPECT_EQ(run.nodes.sim.hits, 1u);
  for (const auto& cell : run.cells) {
    EXPECT_EQ(cell.error_class.rfind("deadlock:", 0), 0u) << cell.error_class;
    EXPECT_EQ(cell.error_class, run.cells[0].error_class);
    EXPECT_EQ(cell.error, run.cells[0].error);
    EXPECT_EQ(cell.diagnostic_json, run.cells[0].diagnostic_json);
  }
  EXPECT_FALSE(run.cells[0].diagnostic_json.empty());
}

}  // namespace
