// Shared pieces of the perfbench binary: workload selection, the seed rule,
// the plan and campaign each workload runs, and the output digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "lab/plan.hpp"
#include "machine/result.hpp"

namespace perfbench {

enum class Workload { PaperCold, PaperWarm, PaperWhatif, FuzzCampaign };

struct Options {
  Workload workload = Workload::PaperCold;
  std::uint64_t seed = 1;
  hidisc::workloads::Scale scale = hidisc::workloads::Scale::Paper;
  std::string cache_dir;  // plan workloads: the run's ResultCache directory
  std::string out_dir;    // traced runs: where the artifacts go
};

// The seed that reproduces the repository's canonical seeds: the workload
// registry seeds and the fuzz campaign's default seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

// Worker threads of the plan workloads (= nproc of the host the benchmark
// was tuned on); the fuzz campaign is single-threaded.
inline constexpr int kThreads = 4;

// Kernels per fuzz-campaign run, at paper and at test scale.
inline constexpr int kPaperKernels = 500;
inline constexpr int kTestKernels = 20;

// DRAM latency of every HiDISC cell in paper-whatif (what
// `hilab --override 'HiDISC:dram=200'` does).
inline constexpr int kWhatifDram = 200;

// The canonical seed for the default benchmark seed, otherwise one derived
// from both with fuzz::derive_seed.
[[nodiscard]] std::uint64_t derive(std::uint64_t bench_seed,
                                   std::uint64_t canonical);

[[nodiscard]] bool is_plan(Workload w);

// The `paper` plan with seeds derived from `o.seed`; paper-whatif also
// raises every HiDISC cell's DRAM latency to kWhatifDram.
[[nodiscard]] hidisc::lab::ExperimentPlan bench_plan(const Options& o);

[[nodiscard]] hidisc::fuzz::CampaignOptions bench_campaign(const Options& o);

// FNV-1a-64 over every Result field (lab::result_to_fields, so every
// visit_result_fields name) in cell order, as 16 hex digits.  perfbench/
// run.py --digest-of recomputes it from a `hilab --json` export.
[[nodiscard]] std::string results_digest(
    const std::vector<hidisc::machine::Result>& results);

// Digest of a fuzz campaign: kernels run, their total dynamic instruction
// count, and how many kernels failed an oracle.
[[nodiscard]] std::string campaign_digest(std::uint64_t kernels,
                                          std::uint64_t dynamic_instructions,
                                          std::uint64_t failing);

[[nodiscard]] std::int64_t steady_ns();

// Runs one traced run (lab or campaign pass, then the layer pass), writes
// the artifacts under o.out_dir and prints the per-layer metrics as one
// JSON line.  Returns the process exit code.
int run_traced(const Options& o);

}  // namespace perfbench
