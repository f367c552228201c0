// hidisc-lab orchestrator tests: parallel/serial equivalence, persistent
// result caching and its per-key leases, content-key sensitivity,
// determinism, serialization round-trips, and the export formats.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>

#include "lab/export.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "lab/result_cache.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "lab/thread_pool.hpp"
#include "machine/machine.hpp"

namespace {

using namespace hidisc;
namespace fs = std::filesystem;

// A small but non-trivial plan: two workloads under all four presets plus
// one swept-config cell, at test scale so the whole file stays fast.
lab::ExperimentPlan tiny_plan() {
  lab::ExperimentPlan plan{"tiny", "lab_test plan", {}};
  for (const char* name : {"Pointer", "Update"})
    for (const auto preset : lab::all_presets())
      plan.cells.push_back(
          lab::Cell{lab::spec(name, workloads::Scale::Test), preset, {}, {},
                    ""});
  machine::MachineConfig slow;
  slow.mem = mem::MemConfig::with_latencies(16, 160);
  plan.cells.push_back(lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                                 machine::Preset::HiDISC, slow, {},
                                 "16/160"});
  return plan;
}

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_((fs::temp_directory_path() /
               (std::string("hidisc_lab_test_") + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

machine::Result nonzero_result() {
  machine::Result r;
  r.cycles = 123456789;
  r.instructions = 7654321;
  r.ipc = 0.62000000000000011;  // not exactly representable in few digits
  r.l1.reads = 42;
  r.l1.read_misses = 7;
  r.l2.writebacks = 9;
  r.branch.lookups = 1000;
  r.branch.mispredicts = 31;
  r.has_cp = true;
  r.cp.lod_stalls = 17;
  r.ldq.max_occupancy = 13;
  r.cmas_forks = 99;
  r.final_fork_lookahead = -384;
  return r;
}

TEST(LabPlan, NamedPlansEnumerate) {
  for (const auto& name : lab::plan_names()) {
    const auto plan = lab::make_plan(name, workloads::Scale::Test);
    EXPECT_EQ(plan.name, name);
    EXPECT_FALSE(plan.cells.empty()) << name;
  }
  EXPECT_EQ(lab::plan_fig8(workloads::Scale::Test).cells.size(), 7u * 4u);
  EXPECT_EQ(lab::plan_fig10(workloads::Scale::Test).cells.size(),
            2u * 4u * 4u);
  EXPECT_THROW(lab::make_plan("bogus", workloads::Scale::Test),
               std::out_of_range);
}

TEST(LabThreadPool, RunsEverySubmittedTask) {
  lab::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
  // Tasks may submit children; wait() must cover them too.
  pool.submit([&pool, &count] {
    for (int i = 0; i < 10; ++i) pool.submit([&count] { count.fetch_add(1); });
  });
  pool.wait();
  EXPECT_EQ(count.load(), 110);
}

TEST(LabSerialize, ResultRoundTripsExactly) {
  const machine::Result r = nonzero_result();
  const auto fields = lab::result_to_fields(r);
  const machine::Result back = lab::result_from_fields(fields);
  EXPECT_TRUE(lab::results_identical(r, back));
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.ipc, r.ipc);  // bit-exact through %.17g
  EXPECT_EQ(back.cp.lod_stalls, r.cp.lod_stalls);
  EXPECT_TRUE(back.has_cp);
  EXPECT_FALSE(back.has_ap);
  // A differing field must be detected.
  machine::Result other = r;
  other.l2.writebacks++;
  EXPECT_FALSE(lab::results_identical(r, other));
}

TEST(LabResultCache, StoreThenLoadIdentical) {
  TempDir dir("cache_roundtrip");
  lab::ResultCache cache(dir.path());
  lab::CacheEntry entry{nonzero_result(), "Pointer", "HiDISC", 123456};
  const std::string key(32, 'a');
  EXPECT_FALSE(cache.load(key).has_value());
  ASSERT_TRUE(cache.store(key, entry));
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(lab::results_identical(back->result, entry.result));
  EXPECT_EQ(back->workload, "Pointer");
  EXPECT_EQ(back->preset, "HiDISC");
  EXPECT_EQ(back->orig_dynamic_instructions, 123456u);
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / (key + ".result.lock")));
}

// ---- per-key leases ---------------------------------------------------------

std::string lock_path(const std::string& dir, const std::string& key) {
  return (fs::path(dir) / (key + ".result.lock")).string();
}

// How many of this process's descriptors are open on `path`.
int open_fds_on(const std::string& path) {
  const fs::path target = fs::canonical(path);
  int n = 0;
  for (const auto& fd : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    if (fs::read_symlink(fd.path(), ec) == target) ++n;
  }
  return n;
}

TEST(LabResultCache, SecondLeaseBlocksUntilFirstIsReleased) {
  TempDir dir("lease_blocks");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'b');
  auto first = cache.lease(key);
  ASSERT_TRUE(first.held());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    const auto second = cache.lease(key);
    acquired = second.held();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(acquired.load());
  first = lab::ResultCache::Lease();  // release without a store
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_FALSE(fs::exists(lock_path(dir.path(), key)));
}

TEST(LabResultCache, StoreThroughLeaseRemovesLockFile) {
  TempDir dir("lease_store");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'c');
  const auto lease = cache.lease(key);
  ASSERT_TRUE(lease.held());
  EXPECT_TRUE(fs::exists(lock_path(dir.path(), key)));
  ASSERT_TRUE(cache.store(lease, {nonzero_result(), "Pointer", "HiDISC", 1}));
  EXPECT_FALSE(fs::exists(lock_path(dir.path(), key)));
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(LabResultCache, LeftoverLockFileIsLeasedAtOnceAndRemoved) {
  // A holder killed mid-simulation leaves its lock file, but the kernel
  // dropped its flock.
  TempDir dir("lease_leftover");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'd');
  std::ofstream(lock_path(dir.path(), key)).put('x');
  {
    const auto lease = cache.lease(key);
    EXPECT_TRUE(lease.held());
  }
  EXPECT_FALSE(fs::exists(lock_path(dir.path(), key)));
}

TEST(LabResultCache, WaiterOnUnlinkedLockRetriesAndSeesResult) {
  TempDir dir("lease_unlinked");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'e');
  const std::string lock = lock_path(dir.path(), key);
  auto holder = cache.lease(key);
  ASSERT_TRUE(holder.held());
  bool held = false, lock_file_present = false;
  std::optional<lab::CacheEntry> seen;
  std::thread waiter([&] {
    const auto lease = cache.lease(key);
    held = lease.held();
    // The lease must be on the lock file at the path, not on the inode
    // the holder unlinked.
    lock_file_present = fs::exists(lock);
    seen = cache.load(key);
  });
  // Let the waiter open the lock file the holder is about to unlink.
  for (int i = 0; i < 2000 && open_fds_on(lock) < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(open_fds_on(lock), 2);
  const lab::CacheEntry entry{nonzero_result(), "Pointer", "HiDISC", 7};
  EXPECT_TRUE(cache.store(holder, entry));
  holder = lab::ResultCache::Lease();
  waiter.join();
  EXPECT_TRUE(held);
  EXPECT_TRUE(lock_file_present);
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(lab::results_identical(seen->result, entry.result));
  EXPECT_FALSE(fs::exists(lock));
}

// ---- cache hardening: checksum footer, strict fields, quarantine -----------

// Reads the whole cache file for `key`; empty when absent.
std::string read_entry(const std::string& dir, const std::string& key) {
  std::ifstream in(fs::path(dir) / (key + ".result"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void write_entry(const std::string& dir, const std::string& key,
                 const std::string& text) {
  std::ofstream out(fs::path(dir) / (key + ".result"), std::ios::trunc);
  out << text;
}

// Quarantine destinations carry a unique `.corrupt.<pid>.<n>` suffix so
// concurrent quarantining processes never clobber each other's specimen;
// match on the prefix rather than an exact name.
bool quarantined(const std::string& dir, const std::string& key) {
  const std::string prefix = key + ".result.corrupt.";
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind(prefix, 0) == 0) return true;
  return false;
}

TEST(LabResultCache, LineAlignedTruncationIsMissAndQuarantined) {
  // The v1 regression: a torn-but-line-aligned entry (e.g. a crashed
  // writer on a non-atomic filesystem) parsed cleanly and silently
  // zeroed every missing field.  It must now be a miss, and the file
  // must be moved aside so it stops being retried.
  TempDir dir("cache_truncated");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'b');
  ASSERT_TRUE(cache.store(key, {nonzero_result(), "w", "p", 1}));

  std::string text = read_entry(dir.path(), key);
  // Keep the header + first 6 lines, dropping the rest (and the footer).
  std::size_t pos = 0;
  for (int lines = 0; lines < 6; ++lines) pos = text.find('\n', pos) + 1;
  write_entry(dir.path(), key, text.substr(0, pos));

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(quarantined(dir.path(), key));
  // The quarantined file no longer shadows the slot: a fresh store+load
  // works again.
  ASSERT_TRUE(cache.store(key, {nonzero_result(), "w", "p", 1}));
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(LabResultCache, CorruptValueFailsChecksumAndQuarantines) {
  TempDir dir("cache_bitrot");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'c');
  ASSERT_TRUE(cache.store(key, {nonzero_result(), "w", "p", 1}));

  std::string text = read_entry(dir.path(), key);
  const auto at = text.find("cycles 123456789");
  ASSERT_NE(at, std::string::npos);
  text[at + 7] = '9';  // flip one digit; footer no longer matches
  write_entry(dir.path(), key, text);

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(quarantined(dir.path(), key));
}

TEST(LabResultCache, TornLineIsQuarantined) {
  TempDir dir("cache_torn");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'd');
  ASSERT_TRUE(cache.store(key, {nonzero_result(), "w", "p", 1}));

  // Cut mid-line: the last kept line has no "name value" shape.
  std::string text = read_entry(dir.path(), key);
  write_entry(dir.path(), key, text.substr(0, text.size() / 2 - 3));
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(quarantined(dir.path(), key));
}

TEST(LabResultCache, ValidChecksumButMissingFieldIsQuarantined) {
  // Third validation layer: a structurally intact entry (good footer)
  // whose field list is incomplete — e.g. written by an older binary
  // after a Result field was added — must not decode as a zeroed field.
  TempDir dir("cache_drift");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'e');
  std::string body =
      "hilab-result v2\nmeta.workload w\nmeta.preset p\n"
      "meta.orig_dyn_insts 1\ncycles 42\n";  // almost every field absent
  char footer[32];
  std::snprintf(footer, sizeof footer, "checksum %016llx",
                static_cast<unsigned long long>(lab::fnv1a64(body)));
  write_entry(dir.path(), key, body + footer + "\n");

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_TRUE(quarantined(dir.path(), key));
}

TEST(LabResultCache, OldVersionHeaderIsPlainMissNotCorruption) {
  TempDir dir("cache_v1");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'f');
  write_entry(dir.path(), key, "hilab-result v1\ncycles 42\n");

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(quarantined(dir.path(), key));  // stale format, kept in place
  // The next store simply overwrites it with a v2 entry.
  ASSERT_TRUE(cache.store(key, {nonzero_result(), "w", "p", 1}));
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(LabSerialize, FromFieldsReportsFirstMissingField) {
  auto fields = lab::result_to_fields(nonzero_result());
  std::string missing = "sentinel";
  (void)lab::result_from_fields(fields, &missing);
  EXPECT_TRUE(missing.empty());  // complete map clears it
  fields.erase("cycles");
  (void)lab::result_from_fields(fields, &missing);
  EXPECT_EQ(missing, "cycles");
}

TEST(LabFingerprint, KeyChangesWithConfigPresetAndProgram) {
  const auto w = lab::spec("Pointer", workloads::Scale::Test).build();
  const auto comp = compiler::compile(w.program);

  const machine::MachineConfig base_cfg;
  const auto key =
      lab::content_key(comp.original, machine::Preset::Superscalar, base_cfg);
  EXPECT_EQ(key.size(), 32u);

  // Same inputs -> same key.
  EXPECT_EQ(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, base_cfg));
  // Any config change -> new key.
  machine::MachineConfig slow = base_cfg;
  slow.mem.dram_latency = 400;
  EXPECT_NE(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, slow));
  machine::MachineConfig narrow = base_cfg;
  narrow.fetch_width = 4;
  EXPECT_NE(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, narrow));
  machine::MachineConfig cmp_tweak = base_cfg;
  cmp_tweak.cmp_fork_lookahead = 512;
  EXPECT_NE(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, cmp_tweak));
  // Preset and binary changes -> new key.
  EXPECT_NE(key, lab::content_key(comp.original, machine::Preset::CPCMP,
                                  base_cfg));
  EXPECT_NE(key, lab::content_key(comp.separated,
                                  machine::Preset::Superscalar, base_cfg));
}

TEST(LabFingerprint, PrefetcherConfigKeysOnlyWhenEnabled) {
  const auto w = lab::spec("Pointer", workloads::Scale::Test).build();
  const auto comp = compiler::compile(w.program);
  const machine::MachineConfig base;
  const auto key =
      lab::content_key(comp.original, machine::Preset::Superscalar, base);

  // Enabling a prefetcher re-keys; every live knob perturbs further.
  machine::MachineConfig pf = base;
  pf.mem.prefetch = mem::parse_prefetch_spec("ipstride");
  const auto pf_key =
      lab::content_key(comp.original, machine::Preset::Superscalar, pf);
  EXPECT_NE(key, pf_key);
  machine::MachineConfig deg = pf;
  deg.mem.prefetch.degree = 4;
  EXPECT_NE(pf_key, lab::content_key(comp.original,
                                     machine::Preset::Superscalar, deg));
  machine::MachineConfig kind = pf;
  kind.mem.prefetch.kind = mem::PrefetchKind::Sms;
  EXPECT_NE(pf_key, lab::content_key(comp.original,
                                     machine::Preset::Superscalar, kind));

  // A knob of a *disabled* prefetcher cannot change the simulation, so it
  // must not change the key either (and pre-prefetcher cache entries stay
  // reachable: the disabled config keys exactly as before).
  machine::MachineConfig inert = base;
  inert.mem.prefetch.degree = 7;
  inert.mem.prefetch.table_entries = 64;
  EXPECT_EQ(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, inert));
}

TEST(LabRunner, ParallelMatchesSerialCellForCell) {
  const auto plan = tiny_plan();
  lab::RunOptions serial;
  serial.threads = 1;
  lab::RunOptions parallel;
  parallel.threads = 4;
  const auto a = lab::run_plan(plan, serial);
  const auto b = lab::run_plan(plan, parallel);
  ASSERT_EQ(a.cells.size(), plan.cells.size());
  ASSERT_EQ(b.cells.size(), plan.cells.size());
  EXPECT_EQ(a.simulated, plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    EXPECT_TRUE(lab::results_identical(a.cells[i].result, b.cells[i].result))
        << "cell " << i << " (" << plan.cells[i].workload.name << "/"
        << machine::preset_name(plan.cells[i].preset) << ")";
    EXPECT_EQ(a.cells[i].key, b.cells[i].key);
    EXPECT_EQ(a.cells[i].orig_dynamic_instructions,
              b.cells[i].orig_dynamic_instructions);
  }
}

TEST(LabRunner, WarmCacheSimulatesNothingAndMatches) {
  TempDir dir("warm_cache");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();

  const auto cold = lab::run_plan(plan, opt);
  EXPECT_EQ(cold.simulated, plan.cells.size());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.nodes.sim.rebuilt, plan.cells.size());

  const auto warm = lab::run_plan(plan, opt);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.cache_hits, plan.cells.size());
  EXPECT_EQ(warm.nodes.sim.rebuilt, 0u);  // no machine, no functional run
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i].from_cache);
    EXPECT_TRUE(
        lab::results_identical(cold.cells[i].result, warm.cells[i].result));
    EXPECT_EQ(cold.cells[i].orig_dynamic_instructions,
              warm.cells[i].orig_dynamic_instructions);
  }

  // --refresh ignores the warm entries and re-simulates.
  lab::RunOptions refresh = opt;
  refresh.refresh = true;
  const auto forced = lab::run_plan(plan, refresh);
  EXPECT_EQ(forced.simulated, plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_TRUE(
        lab::results_identical(cold.cells[i].result, forced.cells[i].result));
}

// Determinism regression: the same (workload, preset) simulated twice in
// one process yields identical cycles/IPC/cache statistics.
TEST(LabRunner, RepeatedSimulationIsDeterministic) {
  const auto w = lab::spec("Update", workloads::Scale::Test).build();
  const auto comp = compiler::compile(w.program);
  for (const auto preset : lab::all_presets()) {
    const auto& bin = machine::uses_separated_binary(preset) ? comp.separated
                                                             : comp.original;
    const auto r1 = machine::run_machine(bin, preset);
    const auto r2 = machine::run_machine(bin, preset);
    EXPECT_EQ(r1.cycles, r2.cycles) << machine::preset_name(preset);
    EXPECT_EQ(r1.ipc, r2.ipc) << machine::preset_name(preset);
    EXPECT_TRUE(lab::results_identical(r1, r2))
        << machine::preset_name(preset);
  }
}

TEST(LabExport, JsonAndCsvCoverEveryCell) {
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  const auto run = lab::run_plan(plan, opt);

  const std::string json = lab::to_json(plan, run, lab::ExportMeta{2});
  EXPECT_NE(json.find("\"plan\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"Pointer\""), std::string::npos);
  EXPECT_NE(json.find("\"preset\": \"HiDISC\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\": \"16/160\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
  EXPECT_NE(json.find("\"l1.read_misses\":"), std::string::npos);

  const std::string csv = lab::to_csv(plan, run);
  // Header + one row per cell.
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, plan.cells.size() + 1);
}

// ---- fault isolation -------------------------------------------------------

TEST(LabRunner, FailingCellIsIsolatedAndHealthyCellsExport) {
  // One cell is sabotaged with an absurd watchdog under Lockstep: its
  // simulation deadlocks deterministically.  Every other cell must
  // complete, the run must count exactly one failure, and both exports
  // must carry the healthy numbers plus the failed cell's diagnostics.
  auto plan = tiny_plan();
  machine::MachineConfig wedged;
  wedged.watchdog_cycles = 1;
  wedged.scheduler = machine::SchedulerKind::Lockstep;
  plan.cells.push_back(lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                                 machine::Preset::Superscalar, wedged, {},
                                 "wedged"});

  lab::RunOptions opt;
  opt.threads = 2;
  const auto run = lab::run_plan(plan, opt);

  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.failed, 1u);
  ASSERT_EQ(run.cells.size(), plan.cells.size());
  const auto& bad = run.cells.back();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error_class.rfind("deadlock:", 0), 0u) << bad.error_class;
  EXPECT_NE(bad.diagnostic_json.find("\"kind\": \"deadlock\""),
            std::string::npos);
  for (std::size_t i = 0; i + 1 < run.cells.size(); ++i) {
    EXPECT_TRUE(run.cells[i].ok()) << plan.cells[i].workload.name;
    EXPECT_GT(run.cells[i].result.cycles, 0u);
  }

  const std::string json = lab::to_json(plan, run, lab::ExportMeta{2});
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"error_class\": \"" + bad.error_class + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"diagnostic\": {"), std::string::npos);

  const std::string csv = lab::to_csv(plan, run);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, plan.cells.size() + 1);  // failed cells still get a row
  EXPECT_NE(csv.find("," + bad.error_class + ","), std::string::npos);
  EXPECT_NE(csv.find("\"machine deadlock:"), std::string::npos);
}

TEST(LabRunner, FailedPrepPoisonsOnlyItsOwnCells) {
  // An unbuildable workload spec fails in wave 1; cells that share the
  // plan but not the prep still run.
  auto plan = tiny_plan();
  lab::Cell broken;
  broken.workload.name = "Broken";
  broken.workload.make = [](workloads::Scale,
                            std::uint64_t) -> workloads::BuiltWorkload {
    throw std::runtime_error("synthetic build failure");
  };
  broken.preset = machine::Preset::Superscalar;
  plan.cells.push_back(broken);

  const auto run = lab::run_plan(plan, lab::RunOptions{});
  EXPECT_EQ(run.failed, 1u);
  const auto& bad = run.cells.back();
  EXPECT_EQ(bad.error_class, "prep");
  EXPECT_NE(bad.error.find("synthetic build failure"), std::string::npos);
  EXPECT_TRUE(bad.diagnostic_json.empty());
  for (std::size_t i = 0; i + 1 < run.cells.size(); ++i)
    EXPECT_TRUE(run.cells[i].ok());
}

TEST(LabRunner, FailedCellsNeverEnterTheCache) {
  TempDir dir("cache_no_poison");
  auto plan = tiny_plan();
  plan.cells.clear();
  machine::MachineConfig wedged;
  wedged.watchdog_cycles = 1;
  wedged.scheduler = machine::SchedulerKind::Lockstep;
  plan.cells.push_back(lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                                 machine::Preset::Superscalar, wedged, {},
                                 "wedged"});

  lab::RunOptions opt;
  opt.cache_dir = dir.path();
  const auto first = lab::run_plan(plan, opt);
  EXPECT_EQ(first.failed, 1u);
  // No entry was stored, so the rerun re-simulates (and re-fails) instead
  // of serving a poisoned hit.
  const auto second = lab::run_plan(plan, opt);
  EXPECT_EQ(second.failed, 1u);
  EXPECT_EQ(second.cache_hits, 0u);
}

}  // namespace
