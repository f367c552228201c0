// perfbench: one process measures one iteration of a benchmark workload,
// or makes one traced run.  perfbench/run.py starts it once per iteration,
// so every iteration pays the process set-up and has a peak RSS of its own.
//
//   perfbench --mode run|traced|info --workload NAME [--seed N]
//             [--scale paper|test] [--cache-dir DIR] [--out-dir DIR]
//
//   run     one untimed set-up, one timed run of the workload
//   traced  per-layer spans and counts (layers.cpp)
//   info    how this binary was built
//
// Each mode prints one JSON object on stdout.  Timestamps are steady-clock
// nanoseconds (CLOCK_MONOTONIC), comparable with Python's
// time.monotonic_ns() in the parent.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "lab/result_cache.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "pipeline/trace_store.hpp"

namespace perfbench {

namespace lab = hidisc::lab;
namespace fuzz = hidisc::fuzz;

std::uint64_t derive(std::uint64_t bench_seed, std::uint64_t canonical) {
  return bench_seed == kDefaultSeed ? canonical
                                    : fuzz::derive_seed(bench_seed, canonical);
}

bool is_plan(Workload w) { return w != Workload::FuzzCampaign; }

lab::ExperimentPlan bench_plan(const Options& o) {
  lab::ExperimentPlan plan = lab::plan_paper(o.scale);
  for (lab::Cell& c : plan.cells) {
    c.workload.seed = derive(o.seed, c.workload.seed);
    if (o.workload == Workload::PaperWhatif &&
        c.preset == hidisc::machine::Preset::HiDISC)
      c.config.mem.dram_latency = kWhatifDram;
  }
  return plan;
}

fuzz::CampaignOptions bench_campaign(const Options& o) {
  fuzz::CampaignOptions c;
  c.seed = derive(o.seed, c.seed);
  c.runs = o.scale == hidisc::workloads::Scale::Paper ? kPaperKernels : kTestKernels;
  // A failing kernel is counted, not minimised, so a run's length stays
  // bounded whatever the seed finds.
  c.shrink = false;
  return c;
}

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string results_digest(const std::vector<hidisc::machine::Result>& results) {
  std::string text;
  for (std::size_t i = 0; i < results.size(); ++i) {
    text += "cell " + std::to_string(i) + "\n";
    for (const auto& [name, value] : lab::result_to_fields(results[i]))
      text += name + "=" + value + "\n";
  }
  return hex16(lab::fnv1a64(text));
}

std::string campaign_digest(std::uint64_t kernels,
                            std::uint64_t dynamic_instructions,
                            std::uint64_t failing) {
  return hex16(lab::fnv1a64("kernels=" + std::to_string(kernels) +
                            "\ndynamic_instructions=" +
                            std::to_string(dynamic_instructions) +
                            "\nfailing=" + std::to_string(failing) + "\n"));
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// User + system CPU of this process, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

Workload parse_workload(const std::string& name) {
  if (name == "paper-cold") return Workload::PaperCold;
  if (name == "paper-warm") return Workload::PaperWarm;
  if (name == "paper-whatif") return Workload::PaperWhatif;
  if (name == "fuzz-campaign") return Workload::FuzzCampaign;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void print_info() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::cout << "{\"compiler\": \"" << lab::json_escape(compiler)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"optimised\": " << (optimised ? "true" : "false")
            << ", \"asserts\": " << (asserts ? "true" : "false")
            << ", \"threads\": " << kThreads << "}\n";
}

// Everything a run does before its timed region: the plan or campaign is
// built and, for plan workloads, the stores are opened (which creates the
// cache directory).
struct Prepared {
  std::optional<lab::ExperimentPlan> plan;
  std::optional<fuzz::CampaignOptions> campaign;
};

Prepared set_up(const Options& o) {
  Prepared p;
  if (is_plan(o.workload)) {
    p.plan = bench_plan(o);
    if (!o.cache_dir.empty()) {
      const lab::ResultCache results(o.cache_dir);
      const hidisc::pipeline::TraceStore traces(o.cache_dir);
    }
  } else {
    p.campaign = bench_campaign(o);
  }
  return p;
}

int run_untraced(const Options& o) {
  const Prepared p = set_up(o);
  const std::int64_t t_ready = steady_ns();
  const double cpu0 = cpu_seconds();
  std::optional<lab::PlanRun> run;
  std::optional<fuzz::CampaignResult> campaign;
  if (p.plan) {
    lab::RunOptions ro;
    ro.threads = kThreads;
    ro.cache_dir = o.cache_dir;
    run = lab::run_plan(*p.plan, ro);
  } else {
    campaign = fuzz::run_campaign(*p.campaign);
  }
  const double wall_s = static_cast<double>(steady_ns() - t_ready) * 1e-9;
  const double cpu_s = cpu_seconds() - cpu0;

  std::string digest;
  std::uint64_t attempted = 0, failed = 0;
  if (run) {
    std::vector<hidisc::machine::Result> results;
    for (const auto& c : run->cells) results.push_back(c.result);
    digest = results_digest(results);
    attempted = run->cells.size();
    failed = run->failed;
  } else {
    attempted = static_cast<std::uint64_t>(p.campaign->runs);
    // Kernels never run (the campaign stops after max_distinct_failures
    // signatures) count as failed too.
    const std::uint64_t failing = campaign->failures.size() +
        static_cast<std::uint64_t>(campaign->duplicate_failures);
    failed = failing + (attempted - static_cast<std::uint64_t>(campaign->runs_done));
    digest = campaign_digest(static_cast<std::uint64_t>(campaign->runs_done),
                             campaign->dynamic_instructions, failing);
  }
  std::cout << "{\"t_ready_ns\": " << t_ready
            << ", \"wall_s\": " << lab::format_double(wall_s)
            << ", \"cpu_s\": " << lab::format_double(cpu_s)
            << ", \"digest\": \"" << digest << "\", \"attempted\": " << attempted
            << ", \"failed\": " << failed << "}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Options o;
    std::string mode = "run";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--mode") mode = value;
      else if (arg == "--workload") o.workload = parse_workload(value);
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--scale")
        o.scale = value == "test" ? hidisc::workloads::Scale::Test
                                  : hidisc::workloads::Scale::Paper;
      else if (arg == "--cache-dir") o.cache_dir = value;
      else if (arg == "--out-dir") o.out_dir = value;
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (mode == "info") {
      print_info();
      return 0;
    }
    if (mode == "run") return run_untraced(o);
    if (mode == "traced") return run_traced(o);
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
