// Golden Results: the test-scale `paper` plan, digested cell by cell and
// compared with a checked-in file.  A second golden pins the compiler's
// output for every registry workload (see CompileGolden below).
//
// The Lockstep shadow and the fuzz scheduler oracle both compare two runs
// of the same core model, so a change that alters every scheduler the same
// way passes them.  This test pins the Results themselves.  A cell's
// digest is FNV-1a 64 over the same text `perfbench/run.py --digest-of`
// hashes for that cell ("cell i" and its sorted name=value lines), and
// the whole-grid digest is the one that script prints for a
// `hilab --plan paper --scale test --json` export.
//
// There is no update switch: when a Result change is intended, the
// failure message prints the lines to paste into the golden file.
//
// The same golden checks runs that share a cache directory across
// processes (ConcurrentRuns below): two concurrent plans, and a plan
// killed mid-run then re-run.  Their children are forked before any
// thread exists and report back through a pipe.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/encoding.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"

namespace {

using namespace hidisc;

constexpr const char* kGridDigest = "8ba02a13c1601290";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string cell_text(std::size_t i, const machine::Result& r) {
  std::string text = "cell " + std::to_string(i) + "\n";
  for (const auto& [name, value] : lab::result_to_fields(r))
    text += name + "=" + value + "\n";
  return text;
}

// One golden line: index, workload, preset, tag ("-" when empty), digest.
std::string golden_line(std::size_t i, const lab::Cell& cell,
                        const std::string& digest) {
  return std::to_string(i) + " " + cell.workload.name + " " +
         machine::preset_name(cell.preset) + " " +
         (cell.tag.empty() ? std::string("-") : cell.tag) + " " + digest;
}

// Every cell's golden line, in plan order.
std::vector<std::string> golden_lines(const lab::ExperimentPlan& plan,
                                      const lab::PlanRun& run) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    lines.push_back(golden_line(
        i, plan.cells[i],
        hex16(lab::fnv1a64(cell_text(i, run.cells[i].result)))));
  return lines;
}

std::vector<std::string> read_golden(const char* path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  return lines;
}

TEST(GoldenResults, TestScalePaperPlanMatchesCheckedInDigests) {
  const auto plan = lab::plan_paper(workloads::Scale::Test);
  lab::RunOptions opt;
  opt.threads = 4;
  const auto run = lab::run_plan(plan, opt);
  ASSERT_TRUE(run.ok()) << run.failed << " cells failed";
  ASSERT_EQ(run.cells.size(), plan.cells.size());

  std::string grid_text;
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    grid_text += cell_text(i, run.cells[i].result);
  const auto got = golden_lines(plan, run);

  const auto want = read_golden(HIDISC_GOLDEN_FILE);
  std::ostringstream diff;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    const std::string g = i < got.size() ? got[i] : "<missing>";
    const std::string w = i < want.size() ? want[i] : "<missing>";
    if (g == w) continue;
    ++mismatched;
    diff << "  want " << w << "\n   got " << g << "\n";
  }
  if (mismatched != 0) {
    std::ostringstream paste;
    for (const auto& line : got) paste << line << "\n";
    ADD_FAILURE() << mismatched << " cells differ from "
                  << HIDISC_GOLDEN_FILE << ":\n"
                  << diff.str()
                  << "If the Result change is intended, replace the file's "
                     "cell lines with:\n"
                  << paste.str();
  }
  EXPECT_EQ(hex16(lab::fnv1a64(grid_text)), kGridDigest)
      << "whole-grid digest (perfbench/run.py --digest-of on a "
         "`hilab --plan paper --scale test --json` export)";
}

// Compile golden: one FNV-1a 64 digest per registry workload at test
// scale and separator mode, over everything compile() returns — both
// binary images, the CacheProfile counters, the CMAS groups and the
// separation counters.  The images alone fix every sim key; the rest
// pins the intermediate facts that produced them.
class CompileDigest {
 public:
  void u64(std::uint64_t v) { h_.update(&v, sizeof v); }
  void bytes(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    h_.update(b.data(), b.size());
  }
  void indices(const std::vector<std::int32_t>& v) {
    u64(v.size());
    for (const auto x : v) u64(static_cast<std::uint64_t>(x));
  }
  [[nodiscard]] std::uint64_t digest() const { return h_.digest(); }

 private:
  lab::Fnv1a h_;
};

std::uint64_t compilation_digest(const compiler::Compilation& c) {
  CompileDigest d;
  d.bytes(isa::save_program(c.original));
  d.bytes(isa::save_program(c.separated));
  d.u64(c.profile.dynamic_instructions);
  d.u64(c.profile.total_l1_misses);
  d.u64(c.profile.per_instr.size());
  for (const auto& p : c.profile.per_instr) {
    d.u64(p.executions);
    d.u64(p.mem_accesses);
    d.u64(p.l1_misses);
  }
  d.u64(c.groups.size());
  for (const auto& g : c.groups) {
    d.u64(static_cast<std::uint64_t>(g.id));
    d.indices(g.members);
    d.indices(g.targets);
    d.u64(static_cast<std::uint64_t>(g.trigger));
  }
  d.u64(c.access_count);
  d.u64(c.compute_count);
  d.u64(c.inserted_pops);
  d.u64(c.pruned_transfers);
  return d.digest();
}

TEST(CompileGolden, TestScaleRegistryMatchesCheckedInDigests) {
  std::vector<std::string> got;
  for (const auto& reg : lab::workload_registry()) {
    const auto w = lab::spec(reg.name, workloads::Scale::Test).build();
    for (const bool flow_sensitive : {true, false}) {
      compiler::CompileOptions opt;
      opt.flow_sensitive_comm = flow_sensitive;
      const auto c = compiler::compile(w.program, opt);
      got.push_back(reg.name + " " + (flow_sensitive ? "fs" : "fi") + " " +
                    hex16(compilation_digest(c)));
    }
  }

  const auto want = read_golden(HIDISC_COMPILE_GOLDEN_FILE);
  std::ostringstream diff, paste;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    const std::string g = i < got.size() ? got[i] : "<missing>";
    const std::string w = i < want.size() ? want[i] : "<missing>";
    if (g == w) continue;
    ++mismatched;
    diff << "  want " << w << "\n   got " << g << "\n";
  }
  for (const auto& line : got) paste << line << "\n";
  EXPECT_EQ(mismatched, 0u)
      << "compilations differ from " << HIDISC_COMPILE_GOLDEN_FILE << ":\n"
      << diff.str()
      << "If the compiler change is intended, replace the file's "
         "workload lines with:\n"
      << paste.str();
}

// ---- processes sharing one cache directory ----------------------------------

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hidisc-golden-XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct Child {
  pid_t pid = -1;
  int out = -1;  // read end of the child's report pipe
};

// Forks a child that writes body()'s text to a pipe and exits 0 (1 if
// body throws).  Call before this process starts any thread.
Child fork_child(const std::function<std::string()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    std::string report;
    try {
      report = body();
    } catch (...) {
      code = 1;
    }
    for (std::size_t off = 0; off < report.size();) {
      const ssize_t n =
          ::write(fds[1], report.data() + off, report.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  return {pid, fds[0]};
}

// Reads the child's report to EOF and reaps it.
std::string finish(const Child& c, int* status) {
  std::string report;
  char buf[4096];
  for (ssize_t n; (n = ::read(c.out, buf, sizeof buf)) > 0;)
    report.append(buf, static_cast<std::size_t>(n));
  ::close(c.out);
  ::waitpid(c.pid, status, 0);
  return report;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> result_cache_locks(const std::string& dir) {
  std::vector<std::string> locks;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".result.lock")) locks.push_back(name);
  }
  return locks;
}

TEST(ConcurrentRuns, TwoProcessesSimulateEachSimKeyOnce) {
  const TempDir dir;
  const auto plan = lab::plan_paper(workloads::Scale::Test);
  // Report: "rebuilt N", then one "<key> <golden line>" per cell.
  const auto body = [&] {
    lab::RunOptions opt;
    opt.threads = 2;
    opt.cache_dir = dir.path;
    const auto run = lab::run_plan(plan, opt);
    std::string report =
        "rebuilt " + std::to_string(run.nodes.sim.rebuilt) + "\n";
    const auto lines = golden_lines(plan, run);
    for (std::size_t i = 0; i < lines.size(); ++i)
      report += run.cells[i].key + " " + lines[i] + "\n";
    return report;
  };
  const Child children[] = {fork_child(body), fork_child(body)};

  const auto want = read_golden(HIDISC_GOLDEN_FILE);
  std::size_t rebuilt = 0;
  std::set<std::string> keys;
  for (const Child& c : children) {
    ASSERT_GT(c.pid, 0);
    int status = 0;
    const auto report = split_lines(finish(c, &status));
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
    ASSERT_EQ(report.size(), plan.cells.size() + 1);
    rebuilt += std::stoull(report[0].substr(report[0].find(' ') + 1));
    std::vector<std::string> got;
    for (std::size_t i = 1; i < report.size(); ++i) {
      const auto space = report[i].find(' ');
      keys.insert(report[i].substr(0, space));
      got.push_back(report[i].substr(space + 1));
    }
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(keys.size(), 68u);
  EXPECT_EQ(rebuilt, keys.size()) << "sims run by both processes together";
  EXPECT_EQ(result_cache_locks(dir.path), std::vector<std::string>{});
}

TEST(ConcurrentRuns, KilledRunResumesBitIdentical) {
  const TempDir dir;
  const auto plan = lab::plan_paper(workloads::Scale::Test);
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path;

  // Dies after 10 finished cells, with the other worker mid-simulation
  // and holding the lease on its key.
  lab::RunOptions doomed = opt;
  doomed.on_cell = [](const lab::Cell&, std::size_t done, std::size_t,
                      bool) {
    if (done == 10) ::kill(::getpid(), SIGKILL);
  };
  int status = 0;
  finish(fork_child([&] {
           (void)lab::run_plan(plan, doomed);
           return std::string();
         }),
         &status);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << status;

  // The golden is the no-cache run (GoldenResults above).
  const auto rerun = lab::run_plan(plan, opt);
  ASSERT_TRUE(rerun.ok());
  EXPECT_GT(rerun.cache_hits, 0u);
  EXPECT_EQ(golden_lines(plan, rerun), read_golden(HIDISC_GOLDEN_FILE));
  EXPECT_EQ(result_cache_locks(dir.path), std::vector<std::string>{});
}

}  // namespace
