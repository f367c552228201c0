// hidisc-lab orchestrator tests: parallel/serial equivalence, persistent
// result caching and its per-key leases, the compile index, content-key
// sensitivity, determinism, serialization round-trips, and the export
// formats.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "lab/export.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "lab/result_cache.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "lab/thread_pool.hpp"
#include "machine/machine.hpp"
#include "pipeline/keys.hpp"

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
  slow.mem = {.l2_latency = 16, .dram_latency = 160};
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

// Cells with equal content keys share one simulation, so a config field
// the key leaves out shows up here as a cell whose Result is not that of
// its own direct run.
TEST(LabPlan, AblationPlansMatchDirectRuns) {
  for (const char* name :
       {"ablation-trigger", "ablation-queues", "ablation-predictor"}) {
    const auto plan = lab::make_plan(name, workloads::Scale::Test);
    lab::RunOptions opt;
    opt.threads = 2;
    const auto run = lab::run_plan(plan, opt);
    ASSERT_TRUE(run.ok()) << name;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      const auto& c = plan.cells[i];
      const auto comp =
          compiler::compile(c.workload.build().program, c.compile);
      machine::Machine m(machine::uses_separated_binary(c.preset)
                             ? comp.separated
                             : comp.original,
                         c.preset, c.config, c.compile.max_steps);
      const auto direct = m.run();
      EXPECT_TRUE(run.cells[i].result == direct)
          << name << " " << c.workload.name << "/"
          << machine::preset_name(c.preset) << " " << c.tag << ": "
          << run.cells[i].result.cycles << " vs " << direct.cycles;
    }
  }
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

TEST(LabThreadPool, OneThreadRunsEveryTaskOnTheCallerInOrder) {
  lab::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool on_caller = true;
  for (int i = 0; i < 4; ++i)
    pool.submit([&, i] {
      on_caller = on_caller && std::this_thread::get_id() == caller;
      order.push_back(i);
      if (i != 1) return;
      for (int child = 10; child < 13; ++child)
        pool.submit([&, child] {
          on_caller = on_caller && std::this_thread::get_id() == caller;
          order.push_back(child);
        });
    });
  pool.wait();
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12}));
}

// wait() must not unwind while other threads may still run tasks that
// use the caller's state, so a throwing task ends the process there too.
TEST(LabThreadPoolDeathTest, ThrowingTaskOnTheCallerTerminates) {
  EXPECT_EXIT(
      {
        // Never destroyed: were wait() to unwind, ~ThreadPool would wait
        // forever for the task that threw, and the test would hang instead
        // of failing.
        auto& pool = *new lab::ThreadPool(1);
        pool.submit([] { throw std::runtime_error("task failed"); });
        pool.wait();
      },
      ::testing::KilledBySignal(SIGABRT), "");
}

TEST(LabThreadPool, DefaultThreadsParsesAllOfHilabThreads) {
  // default_threads() starts no thread, so only small values appear here.
  const char* saved = std::getenv("HILAB_THREADS");
  const std::optional<std::string> restore =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  for (const char* bad : {"abc", "4x", "0", "-2"}) {
    ::setenv("HILAB_THREADS", bad, 1);
    try {
      (void)lab::default_threads();
      ADD_FAILURE() << "HILAB_THREADS=" << bad << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("HILAB_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  ::setenv("HILAB_THREADS", "3", 1);
  EXPECT_EQ(lab::default_threads(), 3);
  if (restore)
    ::setenv("HILAB_THREADS", restore->c_str(), 1);
  else
    ::unsetenv("HILAB_THREADS");
}

// A result_to_fields map as the view list result_from_fields reads: a
// std::map lists its names in sorted order.
std::vector<lab::FieldView> views(
    const std::map<std::string, std::string>& fields) {
  return {fields.begin(), fields.end()};
}

TEST(LabSerialize, ResultRoundTripsExactly) {
  const machine::Result r = nonzero_result();
  const auto fields = lab::result_to_fields(r);
  const machine::Result back = lab::result_from_fields(views(fields));
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

// Every double as bits: -0.0 == 0.0, so == alone would miss a lost sign.
void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << a << " came back as " << b;
}

TEST(LabResultCache, ExtremeValuesRoundTripBitForBit) {
  TempDir dir("cache_extremes");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'e');
  // 1.0000000000000002 needs all 17 significant digits.
  for (const double d : {-0.0, std::numeric_limits<double>::denorm_min(),
                         DBL_MAX, 0.1, std::nextafter(1.0, 2.0)}) {
    machine::Result r = nonzero_result();
    r.cycles = UINT64_MAX;
    r.final_fork_lookahead = INT64_MIN;
    r.ipc = r.pf_accuracy = r.pf_coverage = r.pf_lateness = d;
    ASSERT_TRUE(cache.store(key, {r, "Pointer", "HiDISC", UINT64_MAX}));
    const auto back = cache.load(key);
    ASSERT_TRUE(back.has_value()) << d;
    EXPECT_EQ(back->result, r);
    EXPECT_EQ(back->result.cycles, UINT64_MAX);
    EXPECT_EQ(back->result.final_fork_lookahead, INT64_MIN);
    EXPECT_EQ(back->orig_dynamic_instructions, UINT64_MAX);
    for (const double got : {back->result.ipc, back->result.pf_accuracy,
                             back->result.pf_coverage,
                             back->result.pf_lateness})
      expect_same_bits(d, got);
  }
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

// Reads the whole file at `path`; empty when absent.
std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Reads the whole cache file for `key`; empty when absent.
std::string read_entry(const std::string& dir, const std::string& key) {
  return read_file(fs::path(dir) / (key + ".result"));
}

void write_entry(const std::string& dir, const std::string& key,
                 const std::string& text) {
  write_file(fs::path(dir) / (key + ".result"), text);
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

// Removes the quarantined copies of the entry file `name`; true when there
// was one.
bool take_quarantined(const std::string& dir, const std::string& name) {
  const std::string prefix = name + ".corrupt.";
  std::vector<fs::path> found;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind(prefix, 0) == 0)
      found.push_back(e.path());
  for (const auto& p : found) fs::remove(p);
  return !found.empty();
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

// ---- the entry reader's edges, pinned byte for byte -----------------------

constexpr std::size_t kResultHeaderSize = sizeof("hilab-result v2") - 1;
constexpr std::size_t kCompileHeaderSize = sizeof("hilab-compile v1") - 1;

const lab::CacheEntry kPinnedEntry{nonzero_result(), "Pointer", "HiDISC",
                                   123456};

lab::CompileIndexEntry fixed_compile_entry() {
  return {{lab::Fnv1a(0x0123456789abcdefull), lab::Fnv1a(0xfedcba9876543210ull)},
          {lab::Fnv1a(0x0f1e2d3c4b5a6978ull), lab::Fnv1a(0x8877665544332211ull)}};
}

void expect_same_entry(const lab::CacheEntry& a, const lab::CacheEntry& b) {
  EXPECT_TRUE(lab::results_identical(a.result, b.result));
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.preset, b.preset);
  EXPECT_EQ(a.orig_dynamic_instructions, b.orig_dynamic_instructions);
}

void expect_same_entry(const lab::CompileIndexEntry& a,
                       const lab::CompileIndexEntry& b) {
  EXPECT_EQ(a.orig.lo.digest(), b.orig.lo.digest());
  EXPECT_EQ(a.orig.hi.digest(), b.orig.hi.digest());
  EXPECT_EQ(a.sep.lo.digest(), b.sep.lo.digest());
  EXPECT_EQ(a.sep.hi.digest(), b.sep.hi.digest());
}

TEST(LabResultCache, FooterWithoutFinalNewlineLoads) {
  TempDir dir("cache_no_final_newline");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '1');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  std::string text = read_entry(dir.path(), key);
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  write_entry(dir.path(), key, text);
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  expect_same_entry(*back, kPinnedEntry);
}

TEST(LabResultCache, BytesAfterTheFooterAreIgnored) {
  TempDir dir("cache_trailing_bytes");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '2');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  write_entry(dir.path(), key,
              read_entry(dir.path(), key) + "cycles 1\nno-space\n\n\r\nx");
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  expect_same_entry(*back, kPinnedEntry);
  EXPECT_FALSE(quarantined(dir.path(), key));
}

TEST(LabResultCache, EmptyFileIsPlainMissAndHeaderOnlyIsQuarantined) {
  TempDir dir("cache_empty");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '3');
  write_entry(dir.path(), key, "");
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(quarantined(dir.path(), key));
  EXPECT_TRUE(fs::exists(fs::path(dir.path()) / (key + ".result")));

  // A header without a footer is a torn entry.
  for (const char* text : {"hilab-result v2\n", "hilab-result v2"}) {
    write_entry(dir.path(), key, text);
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_TRUE(take_quarantined(dir.path(), key + ".result")) << text;
  }
}

TEST(LabResultCache, CrLfEntryIsPlainMiss) {
  // Its header line reads "hilab-result v2\r": another format, not damage.
  TempDir dir("cache_crlf");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '4');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  std::string crlf;
  for (const char c : read_entry(dir.path(), key)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  write_entry(dir.path(), key, crlf);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(quarantined(dir.path(), key));
}

TEST(LabResultCache, LaterDuplicateFieldWins) {
  TempDir dir("cache_duplicates");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '8');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  const std::string text = read_entry(dir.path(), key);
  std::string body = text.substr(0, text.rfind("checksum "));
  body.insert(kResultHeaderSize + 1, "cycles 5\nmeta.preset P\n");
  body += "meta.preset Q\nl1.reads  77\nhas_cp 1 \n";
  char footer[32];
  std::snprintf(footer, sizeof footer, "checksum %016llx",
                static_cast<unsigned long long>(lab::fnv1a64(body)));
  write_entry(dir.path(), key, body + footer + "\n");

  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->result.cycles, kPinnedEntry.result.cycles);
  EXPECT_EQ(back->preset, "Q");
  EXPECT_EQ(back->result.l1.reads, 77u);  // strtoull skips the extra space
  EXPECT_FALSE(back->result.has_cp);      // a bool is exactly "1"
}

// `body` (an entry without its footer) with a fresh checksum footer.
std::string with_checksum(const std::string& body) {
  char footer[32];
  std::snprintf(footer, sizeof footer, "checksum %016llx",
                static_cast<unsigned long long>(lab::fnv1a64(body)));
  return body + footer + "\n";
}

// The field lines of the stored entry `key`, between header and footer.
std::vector<std::string> stored_field_lines(const std::string& dir,
                                            const std::string& key) {
  const std::string text = read_entry(dir, key);
  const std::string fields = text.substr(
      kResultHeaderSize + 1, text.rfind("checksum ") - kResultHeaderSize - 1);
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < fields.size();) {
    const std::size_t end = fields.find('\n', pos);
    lines.push_back(fields.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  return lines;
}

std::string result_body(const std::vector<std::string>& lines) {
  std::string body = "hilab-result v2\n";
  for (const auto& line : lines) body += line;
  return body;
}

TEST(LabResultCache, FieldOrderDoesNotMatter) {
  TempDir dir("cache_shuffled");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '9');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  auto lines = stored_field_lines(dir.path(), key);
  ASSERT_GT(lines.size(), 100u);
  std::mt19937 rng(7);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(lines.begin(), lines.end(), rng);
    write_entry(dir.path(), key, with_checksum(result_body(lines)));
    const auto back = cache.load(key);
    ASSERT_TRUE(back.has_value()) << round;
    expect_same_entry(*back, kPinnedEntry);
  }
  // Descending names: no line is the one after its predecessor's name.
  std::sort(lines.rbegin(), lines.rend());
  write_entry(dir.path(), key, with_checksum(result_body(lines)));
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  expect_same_entry(*back, kPinnedEntry);
  EXPECT_FALSE(quarantined(dir.path(), key));
}

TEST(LabResultCache, UnknownFieldsAreIgnored) {
  TempDir dir("cache_unknown");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'a');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  auto lines = stored_field_lines(dir.path(), key);
  // Before the first name, between names, after the last, and names that
  // extend or prefix known ones.
  lines.insert(lines.begin(), "aaa 1\n");
  lines.insert(lines.begin() + 5, "cycles.extra 2\n");
  lines.insert(lines.begin() + 20, "l1 3\n");
  lines.insert(lines.begin() + 40, "meta.other x y z\n");
  lines.push_back("zzz 4\n");
  write_entry(dir.path(), key, with_checksum(result_body(lines)));
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  expect_same_entry(*back, kPinnedEntry);
  EXPECT_FALSE(quarantined(dir.path(), key));
}

TEST(LabResultCache, LongValueParsesAsBefore) {
  TempDir dir("cache_long_value");
  lab::ResultCache cache(dir.path());
  const std::string key(32, 'b');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  const std::string blanks(80, ' ');
  const std::string zeros(80, '0');
  auto lines = stored_field_lines(dir.path(), key);
  for (auto& line : lines) {
    if (line.starts_with("cycles "))
      line = "cycles " + blanks + "123456789\n";
    else if (line.starts_with("ipc "))
      line = "ipc " + blanks + "0.62000000000000011\n";
    else if (line.starts_with("l1.reads "))
      line = "l1.reads " + zeros + "42\n";
    else if (line.starts_with("final_fork_lookahead "))
      line = "final_fork_lookahead " + blanks + "-384\n";
    else if (line.starts_with("l2.writebacks "))
      line = "l2.writebacks 9" + blanks + "junk\n";
  }
  write_entry(dir.path(), key, with_checksum(result_body(lines)));
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  expect_same_entry(*back, kPinnedEntry);
  EXPECT_EQ(back->result.cycles,
            std::strtoull((blanks + "123456789").c_str(), nullptr, 10));
  EXPECT_EQ(back->result.ipc,
            std::strtod((blanks + "0.62000000000000011").c_str(), nullptr));
}

TEST(LabResultCache, EveryTruncationMissesOrLoadsTheSameEntry) {
  TempDir dir("cache_prefixes");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '5');
  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  const std::string text = read_entry(dir.path(), key);
  int loaded = 0;
  for (std::size_t n = 0; n <= text.size(); ++n) {
    write_entry(dir.path(), key, text.substr(0, n));
    std::optional<lab::CacheEntry> back;
    ASSERT_NO_THROW(back = cache.load(key)) << n;
    if (back) {
      ++loaded;
      expect_same_entry(*back, kPinnedEntry);
    }
    // A prefix shorter than the header line is another format; any longer
    // one that does not load is damaged.
    EXPECT_EQ(take_quarantined(dir.path(), key + ".result"),
              n >= kResultHeaderSize && !back)
        << n;
  }
  // Only the whole file, with or without its final newline, has the footer.
  EXPECT_EQ(loaded, 2);
}

TEST(LabCompileIndex, EveryTruncationMissesOrLoadsTheSameEntry) {
  TempDir dir("index_prefixes");
  lab::ResultCache cache(dir.path());
  const std::string key(32, '6');
  ASSERT_TRUE(cache.store_compile(key, fixed_compile_entry()));
  const fs::path path = fs::path(dir.path()) / (key + ".compile");
  const std::string text = read_file(path);
  int loaded = 0;
  for (std::size_t n = 0; n <= text.size(); ++n) {
    write_file(path, text.substr(0, n));
    std::optional<lab::CompileIndexEntry> back;
    ASSERT_NO_THROW(back = cache.load_compile(key)) << n;
    if (back) {
      ++loaded;
      expect_same_entry(*back, fixed_compile_entry());
    }
    EXPECT_EQ(take_quarantined(dir.path(), key + ".compile"),
              n >= kCompileHeaderSize && !back)
        << n;
  }
  EXPECT_EQ(loaded, 2);
}

TEST(LabResultCache, ReadsEntriesWrittenByThePreviousReader) {
  // tests/testdata/cache-entry.{result,compile} hold kPinnedEntry and
  // fixed_compile_entry() as stored when entries were still read line by
  // line through std::ifstream into a std::map.  The writer has not
  // changed since, so they are also the bytes it writes today.
  TempDir dir("cache_fixture");
  lab::ResultCache cache(dir.path());
  const fs::path data(HIDISC_TESTDATA_DIR);
  const std::string key(32, '7');
  const fs::path result = fs::path(dir.path()) / (key + ".result");
  const fs::path compile = fs::path(dir.path()) / (key + ".compile");
  fs::copy_file(data / "cache-entry.result", result);
  fs::copy_file(data / "cache-entry.compile", compile);

  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  expect_same_entry(*back, kPinnedEntry);
  const auto index = cache.load_compile(key);
  ASSERT_TRUE(index.has_value());
  expect_same_entry(*index, fixed_compile_entry());

  ASSERT_TRUE(cache.store(key, kPinnedEntry));
  ASSERT_TRUE(cache.store_compile(key, fixed_compile_entry()));
  EXPECT_EQ(read_file(result), read_file(data / "cache-entry.result"));
  EXPECT_EQ(read_file(compile), read_file(data / "cache-entry.compile"));
}

TEST(LabSerialize, FromFieldsReportsFirstMissingField) {
  auto fields = lab::result_to_fields(nonzero_result());
  std::string missing = "sentinel";
  (void)lab::result_from_fields(views(fields), &missing);
  EXPECT_TRUE(missing.empty());  // complete map clears it
  fields.erase("cycles");
  (void)lab::result_from_fields(views(fields), &missing);
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
  // The CMP prefetch buffer keys off its Table-1 default of 8 only.
  machine::MachineConfig pfbuf = base_cfg;
  pfbuf.cmp_prefetch_buffer = 1;
  EXPECT_NE(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, pfbuf));
  pfbuf.cmp_prefetch_buffer = 8;
  EXPECT_EQ(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, pfbuf));
  // Preset and binary changes -> new key.
  EXPECT_NE(key, lab::content_key(comp.original, machine::Preset::CPCMP,
                                  base_cfg));
  EXPECT_NE(key, lab::content_key(comp.separated,
                                  machine::Preset::Superscalar, base_cfg));
}

// The default keys, pinned: a change to describe(), to a folded constant
// or to the hash re-keys every existing result cache, so it must show up
// here as a deliberate edit.
TEST(LabFingerprint, DefaultKeysArePinned) {
  const auto fnv1a64 = [](const std::string& s) {
    lab::Fnv1a h;
    h.update(s);
    return h.digest();
  };
  EXPECT_EQ(fnv1a64(lab::describe(machine::MachineConfig{})),
            0xd254dff219364866ull);
  EXPECT_EQ(fnv1a64(lab::describe(compiler::CompileOptions{})),
            0x49cc68029367594eull);

  const auto prog = isa::assemble(
      "li r5, 3\nloop:\naddi r5, r5, -1\nbne r5, r0, loop\nhalt\n");
  const std::pair<machine::Preset, const char*> want[] = {
      {machine::Preset::Superscalar, "84bf56838d58a40be038eda91cd7647b"},
      {machine::Preset::CPAP, "d055bf7c053413ad44b9f0aff638bd5d"},
      {machine::Preset::CPCMP, "f100795e3d72c16a7d0a6e5f8ff7b87a"},
      {machine::Preset::HiDISC, "9f61aed65cbdb134d339969cab0a4864"},
  };
  for (const auto& [preset, key] : want)
    EXPECT_EQ(lab::content_key(prog, preset, {}), key)
        << machine::preset_name(preset);
}

// The compile keys and a compile-index key, pinned: a change to them
// orphans every compile index entry, so it must be a deliberate edit.
TEST(LabFingerprint, CompileKeysArePinned) {
  compiler::CompileOptions ablated;
  ablated.flow_sensitive_comm = false;
  ablated.cmas.trigger_distance = 256;
  const std::string pointer = pipeline::compile_key(
      lab::spec("Pointer", workloads::Scale::Test), {});
  const std::string fft =
      pipeline::compile_key(lab::spec("FFT", workloads::Scale::Paper), ablated);
  EXPECT_EQ(pointer, "8e96d57a8014fea4a84d88491ad5db74");
  EXPECT_EQ(fft, "1004063f1e35f2ad42886d6d0a37029d");
  EXPECT_EQ(lab::compile_index_key(
                "build-id=0123456789abcdef;fma=1;fma4=0;avx2=1;", pointer),
            "6b2356c29d3955f5e94a9d712e5f3a45");
}

// Every named plan's keys, pinned: one hash per plan over each cell's
// describe(config) and describe(compile), in order, so a config refactor
// that moved any swept knob's key (or dropped one from it) shows up here.
TEST(LabFingerprint, EveryNamedPlanIsPinned) {
  const std::pair<const char*, std::uint64_t> want[] = {
      {"fig8", 0x25ef1293662c6f3dull},
      {"fig9", 0x25ef1293662c6f3dull},
      {"fig10", 0xc6bec120e475cdc5ull},
      {"table2", 0x25ef1293662c6f3dull},
      {"extra", 0x195d42366cdcddc5ull},
      {"paper", 0xedf4a7fdd3898f7dull},
      {"prefetch", 0xc9632cd36f7a9dfdull},
      {"ablation-trigger", 0x5f7fae8943ca2210ull},
      {"ablation-queues", 0x4b9409c8c648708dull},
      {"ablation-predictor", 0x5ebc34091490b979ull},
  };
  ASSERT_EQ(std::size(want), lab::plan_names().size());
  for (const auto& [name, digest] : want) {
    lab::Fnv1a h;
    for (const auto& c : lab::make_plan(name, workloads::Scale::Test).cells) {
      h.update(lab::describe(c.config));
      h.update(lab::describe(c.compile));
    }
    EXPECT_EQ(h.digest(), digest)
        << name << " 0x" << std::hex << h.digest();
  }
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
  const auto sms_key =
      lab::content_key(comp.original, machine::Preset::Superscalar, kind);
  EXPECT_NE(pf_key, sms_key);

  // A knob the enabled kind does not read keys as its default does.
  machine::MachineConfig sms_dist = kind;
  sms_dist.mem.prefetch.distance = 3;
  EXPECT_EQ(sms_key, lab::content_key(comp.original,
                                      machine::Preset::Superscalar, sms_dist));
  machine::MachineConfig ip_region = pf;
  ip_region.mem.prefetch.sms_region_blocks = 4;
  EXPECT_EQ(pf_key, lab::content_key(comp.original,
                                     machine::Preset::Superscalar, ip_region));

  // A knob of a *disabled* prefetcher cannot change the simulation, so it
  // must not change the key either (and pre-prefetcher cache entries stay
  // reachable: the disabled config keys exactly as before).
  machine::MachineConfig inert = base;
  inert.mem.prefetch.degree = 7;
  inert.mem.prefetch.sms_region_blocks = 4;
  EXPECT_EQ(key, lab::content_key(comp.original,
                                  machine::Preset::Superscalar, inert));
}

// The prefetch specs the prefetch plan, the fuzz oracle and perfbench
// build, in canonical spelling, and the describe() hash of a +pf cell of
// the prefetch plan: keys carry the canonical spec, so a change to the
// spec grammar that moved any of these would orphan every cached
// prefetcher result.
TEST(LabFingerprint, PrefetchSpecsArePinned) {
  const auto spec_of = [](mem::PrefetchKind kind, int degree, int distance,
                          int region) {
    mem::PrefetchConfig pf;
    pf.kind = kind;
    pf.degree = degree;
    pf.distance = distance;
    pf.sms_region_blocks = region;
    return mem::prefetch_spec(pf);
  };
  // The plan's degree 2 is the default, so its spec prints without it.
  EXPECT_EQ(spec_of(mem::PrefetchKind::IpStride, 2, 4, 16), "ipstride:dist4");
  EXPECT_EQ(spec_of(mem::PrefetchKind::IpStride, 4, 1, 16), "ipstride:deg4");
  EXPECT_EQ(spec_of(mem::PrefetchKind::Sms, 2, 1, 4), "sms:region4");
  for (const char* s : {"ipstride:dist4", "ipstride:deg4", "sms:region4"})
    EXPECT_EQ(mem::prefetch_spec(mem::parse_prefetch_spec(s)), s);
  EXPECT_EQ(
      mem::prefetch_spec(mem::parse_prefetch_spec("ipstride:deg2:dist4")),
      "ipstride:dist4");

  const auto plan = lab::plan_prefetch(workloads::Scale::Test);
  const auto i = plan.find("Pointer", machine::Preset::CPAP, "16/160+pf");
  ASSERT_GE(i, 0);
  const auto desc =
      lab::describe(plan.cells[static_cast<std::size_t>(i)].config);
  EXPECT_NE(desc.find("mem.pf=ipstride:dist4;"), std::string::npos)
      << desc;
  lab::Fnv1a h;
  h.update(desc);
  EXPECT_EQ(h.digest(), 0xd9cb3cf259b9f7c1ull) << desc;
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

// ---- compile index -----------------------------------------------------------

// Two build identities as build_identity() makes them; nothing here
// depends on this process's own.
const std::optional<std::string> kOurs = lab::build_identity({"aa01", "bb02"});
const std::optional<std::string> kTheirs =
    lab::build_identity({"aa01", "bb03"});

std::vector<fs::path> files_with(const std::string& dir,
                                 const std::string& needle) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().find(needle) != std::string::npos)
      out.push_back(e.path());
  return out;
}

std::string index_key(const std::string& identity, const lab::Cell& cell) {
  return lab::compile_index_key(
      identity, pipeline::compile_key(cell.workload, cell.compile));
}

void expect_same_cells(const lab::PlanRun& a, const lab::PlanRun& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].key, b.cells[i].key) << i;
    EXPECT_TRUE(lab::results_identical(a.cells[i].result, b.cells[i].result))
        << i;
    EXPECT_EQ(a.cells[i].orig_dynamic_instructions,
              b.cells[i].orig_dynamic_instructions)
        << i;
  }
}

TEST(LabCompileIndex, OtherBuildIdentityMissesThenCompilesToEqualKeys) {
  TempDir dir("index_identity");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  ASSERT_TRUE(kOurs && kTheirs);
  ASSERT_NE(*kOurs, *kTheirs);
  EXPECT_NE(index_key(*kOurs, plan.cells[0]), index_key(*kTheirs, plan.cells[0]));

  const auto cold = lab::run_plan(plan, opt, kTheirs);
  EXPECT_EQ(cold.nodes.compile.rebuilt, 2u);
  EXPECT_EQ(files_with(dir.path(), ".compile").size(), 2u);

  // Another build's entries are misses: each task compiles, and every
  // cell is still a result-cache hit under the same key.
  const auto miss = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(miss.nodes.compile.hits, 0u);
  EXPECT_EQ(miss.nodes.compile.rebuilt, 2u);
  EXPECT_EQ(miss.simulated, 0u);
  expect_same_cells(cold, miss);
  EXPECT_EQ(files_with(dir.path(), ".compile").size(), 4u);

  const auto hit = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(hit.nodes.compile.hits, 2u);
  EXPECT_EQ(hit.nodes.compile.rebuilt, 0u);
  EXPECT_EQ(hit.preps, 0u);
  EXPECT_EQ(hit.simulated, 0u);
  EXPECT_EQ(hit.nodes.sim.hits, plan.cells.size());
  expect_same_cells(cold, hit);
}

TEST(LabCompileIndex, DamagedEntryIsQuarantinedAndTheTaskCompiles) {
  TempDir dir("index_damaged");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt, kOurs);

  const fs::path entry =
      fs::path(dir.path()) / (index_key(*kOurs, plan.cells[0]) + ".compile");
  std::string text;
  {
    std::ifstream in(entry);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const auto at = text.find("orig.lo ");
  ASSERT_NE(at, std::string::npos);
  text[at + 8] ^= 1;  // one flipped bit in one hex digit
  std::ofstream(entry, std::ios::trunc) << text;

  const auto warm = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(warm.nodes.compile.hits, 1u);
  EXPECT_EQ(warm.nodes.compile.rebuilt, 1u);
  EXPECT_EQ(warm.simulated, 0u);
  expect_same_cells(cold, warm);
  const auto corrupt = files_with(dir.path(), ".compile.corrupt.");
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(corrupt[0].filename().string().rfind(
                entry.filename().string() + ".corrupt.", 0),
            0u);
  // The compile wrote the entry afresh.
  EXPECT_EQ(lab::run_plan(plan, opt, kOurs).nodes.compile.hits, 2u);
}

TEST(LabCompileIndex, MissingResultCompilesOnlyItsJobAndSimulatesOnlyIt) {
  TempDir dir("index_partial");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt, kOurs);
  const auto gone = static_cast<std::size_t>(
      plan.find("Update", machine::Preset::HiDISC));
  ASSERT_TRUE(fs::remove(fs::path(dir.path()) /
                         (cold.cells[gone].key + ".result")));

  const auto warm = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(warm.nodes.compile.hits, 1u);     // Pointer
  EXPECT_EQ(warm.nodes.compile.rebuilt, 1u);  // Update
  EXPECT_EQ(warm.simulated, 1u);
  EXPECT_EQ(warm.nodes.sim.rebuilt, 1u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(warm.cells[i].from_cache, i != gone) << i;
  expect_same_cells(cold, warm);
}

// Two missing results of one job at four threads: the job compiles once,
// on demand, however many of its cells miss at the same time.
TEST(LabCompileIndex, TwoMissingResultsOfOneJobCompileItOnce) {
  TempDir dir("index_two_missing");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 4;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt, kOurs);
  std::vector<std::size_t> gone;
  for (const auto preset : {machine::Preset::CPAP, machine::Preset::HiDISC}) {
    gone.push_back(static_cast<std::size_t>(plan.find("Update", preset)));
    ASSERT_TRUE(fs::remove(fs::path(dir.path()) /
                           (cold.cells[gone.back()].key + ".result")));
  }

  const auto warm = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(warm.nodes.compile.hits, 1u);     // Pointer
  EXPECT_EQ(warm.nodes.compile.rebuilt, 1u);  // Update, once
  EXPECT_EQ(warm.nodes.compile.failed, 0u);
  EXPECT_EQ(warm.preps, 1u);
  EXPECT_EQ(warm.simulated, 2u);
  EXPECT_EQ(warm.nodes.sim.rebuilt, 2u);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size() - 2);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(warm.cells[i].from_cache,
              std::find(gone.begin(), gone.end(), i) == gone.end())
        << i;
  expect_same_cells(cold, warm);
}

// An index entry serves a job whose compile fails: the cells that miss
// the result cache compile on demand and fail with the prep error.
TEST(LabCompileIndex, FailedCompileOnDemandFailsTheCellsThatNeededIt) {
  TempDir dir("index_failed_compile");
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  lab::ExperimentPlan plan{"short", "compile stops after 10 steps", {}};
  for (const auto preset : lab::all_presets()) {
    plan.cells.push_back(lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                                   preset, {}, {}, ""});
    plan.cells.back().compile.max_steps = 10;
  }
  const lab::ResultCache cache(dir.path());
  ASSERT_TRUE(cache.store_compile(index_key(*kOurs, plan.cells[0]),
                                  {lab::image_key_state({1}),
                                   lab::image_key_state({2})}));

  const auto run = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(run.nodes.compile.hits, 0u);
  EXPECT_EQ(run.nodes.compile.rebuilt, 0u);
  EXPECT_EQ(run.nodes.compile.failed, 1u);
  EXPECT_EQ(run.failed, plan.cells.size());
  EXPECT_EQ(run.simulated, 0u);
  for (const auto& cell : run.cells) {
    EXPECT_EQ(cell.error_class, "prep");
    EXPECT_EQ(cell.error.rfind("prep Pointer failed: ", 0), 0u) << cell.error;
  }
  EXPECT_TRUE(files_with(dir.path(), ".result").empty());
}

TEST(LabCompileIndex, RefreshIgnoresTheIndexAndRewritesIt) {
  TempDir dir("index_refresh");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt, kOurs);
  lab::RunOptions refresh = opt;
  refresh.refresh = true;

  // Every entry would serve its whole job, but --refresh simulates all.
  const auto forced = lab::run_plan(plan, refresh, kOurs);
  EXPECT_EQ(forced.nodes.compile.hits, 0u);
  EXPECT_EQ(forced.nodes.compile.rebuilt, 2u);
  EXPECT_EQ(forced.simulated, plan.cells.size());
  expect_same_cells(cold, forced);

  // Well-formed entries with the wrong image hashes send every cell to a
  // key that misses; a refresh run replaces them.
  const lab::ResultCache cache(dir.path());
  const lab::CompileIndexEntry wrong{lab::image_key_state({1}),
                                     lab::image_key_state({2})};
  for (const auto& path : files_with(dir.path(), ".compile")) {
    ASSERT_TRUE(cache.load_compile(path.stem().string()).has_value());
    ASSERT_TRUE(cache.store_compile(path.stem().string(), wrong));
  }
  EXPECT_EQ(lab::run_plan(plan, refresh, kOurs).simulated, plan.cells.size());

  const auto warm = lab::run_plan(plan, opt, kOurs);
  EXPECT_EQ(warm.nodes.compile.hits, 2u);
  EXPECT_EQ(warm.simulated, 0u);
  expect_same_cells(cold, warm);
}

TEST(LabCompileIndex, ObjectWithoutBuildIdTurnsTheIndexOff) {
  EXPECT_FALSE(lab::build_identity({"aa01", ""}).has_value());
  EXPECT_FALSE(lab::build_identity({"", "bb02"}).has_value());

  TempDir dir("index_off");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt, lab::build_identity({"aa01", ""}));
  const auto warm = lab::run_plan(plan, opt, lab::build_identity({"aa01", ""}));
  EXPECT_EQ(warm.nodes.compile.hits, 0u);
  EXPECT_EQ(warm.nodes.compile.rebuilt, 2u);
  EXPECT_EQ(warm.simulated, 0u);
  expect_same_cells(cold, warm);
  EXPECT_TRUE(files_with(dir.path(), ".compile").empty());
}

// run_plan without an explicit identity keys the index by this process's
// objects.  A test binary may link a library without a build-id (a gtest
// built without one, say); the index is then off, and this checks that.
TEST(LabCompileIndex, DefaultRunUsesTheProcessIdentity) {
  TempDir dir("index_process");
  const auto plan = tiny_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);
  const auto warm = lab::run_plan(plan, opt);
  const auto& identity = lab::process_build_identity();
  EXPECT_EQ(identity.has_value(), !files_with(dir.path(), ".compile").empty());
  EXPECT_EQ(warm.nodes.compile.hits, identity ? 2u : 0u);
  EXPECT_EQ(warm.simulated, 0u);
  expect_same_cells(cold, warm);
  if (identity) {
    for (const auto& cell : plan.cells)
      EXPECT_TRUE(fs::exists(fs::path(dir.path()) /
                             (index_key(*identity, cell) + ".compile")));
  }
}

TEST(LabCompileIndex, CustomMakerNamedLikeARegistryWorkloadNeverReadsIt) {
  TempDir dir("index_custom");
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  lab::ExperimentPlan plan{"pointer", "registry Pointer", {}};
  for (const auto preset : lab::all_presets())
    plan.cells.push_back(lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                                   preset, {}, {}, ""});
  const auto registry = lab::run_plan(plan, opt, kOurs);
  ASSERT_EQ(files_with(dir.path(), ".compile").size(), 1u);

  // Same name, scale and seed, so the same compile key; another program.
  auto custom = plan;
  for (auto& cell : custom.cells)
    cell.workload.make = [](workloads::Scale scale, std::uint64_t seed) {
      return workloads::make_update(scale, seed);
    };
  ASSERT_EQ(pipeline::compile_key(custom.cells[0].workload, {}),
            pipeline::compile_key(plan.cells[0].workload, {}));
  const auto run = lab::run_plan(custom, opt, kOurs);
  EXPECT_EQ(run.nodes.compile.hits, 0u);
  EXPECT_EQ(run.nodes.compile.rebuilt, 1u);
  EXPECT_EQ(run.simulated, plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_NE(run.cells[i].key, registry.cells[i].key) << i;
  EXPECT_EQ(files_with(dir.path(), ".compile").size(), 1u);
}

}  // namespace
