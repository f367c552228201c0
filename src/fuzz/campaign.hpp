// Fuzz campaign driver: seed -> generate -> multi-oracle -> shrink ->
// corpus, deterministic at every thread count.
//
// Run i derives its kernel seed from the campaign seed with a splitmix64
// step, so `hifuzz --gen-seed <kernel_seed>` regenerates any single run
// exactly.  Runs are independent, so worker threads generate and check
// them ahead of time (at most 4 x workers runs past the last committed
// one) while the calling thread commits their reports strictly in run
// order: counting, deduplication by oracle signature, log lines, shrinking
// each new signature to a minimal reproducer, the optional corpus write,
// and the stop at max_distinct_failures.  Reports past the stop are
// discarded, so the result and the log are identical for every `threads`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"

namespace hidisc::fuzz {

// The splitmix64 step used to derive per-run kernel seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                        std::uint64_t run_index);

struct CampaignOptions {
  std::uint64_t seed = 1;
  int runs = 200;
  GenLimits limits{};
  OracleOptions oracle{};
  bool shrink = true;
  std::size_t shrink_max_evals = 2000;
  int max_distinct_failures = 8;  // stop hunting after this many signatures
  std::string corpus_out;         // write minimized repros here ("" = off)
  std::ostream* log = nullptr;    // progress / failure narration
  // Worker threads that generate and check kernels; 0 = one per hardware
  // thread.  The result does not depend on it.
  int threads = 0;
};

struct CampaignFailure {
  std::uint64_t kernel_seed = 0;
  OracleReport report;            // failure of the full-size kernel
  std::string minimized_source;   // after shrinking (== original if off)
  std::size_t minimized_instructions = 0;
  std::string repro_path;         // where the reproducer was written
};

struct CampaignResult {
  int runs_done = 0;
  std::uint64_t dynamic_instructions = 0;  // total across all runs
  std::vector<CampaignFailure> failures;   // one per distinct signature
  int duplicate_failures = 0;              // same-signature repeats

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

// Throws std::invalid_argument on negative `threads`; an exception thrown
// while generating or checking run i is rethrown when run i commits.
[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& opt);

}  // namespace hidisc::fuzz
