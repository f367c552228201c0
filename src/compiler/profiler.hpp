// Cache-access profiling (paper §4.2: "We use a cache access profile to
// detect probable cache miss instructions").
//
// One streamed functional run (sim::Functional::stream_chunk into one
// reused buffer) feeds a ProfileObserver chunk by chunk; no trace is ever
// materialised.  The observer
//   * counts executions per static instruction and replays every load and
//     store through a fresh memory hierarchy, recording per static
//     instruction how many L1-D demand misses it caused (the CacheProfile);
//   * keeps a ring of the last `trigger_distance` static indices and
//     counts, for every dynamic load, which static instruction retired that
//     many dynamic instructions earlier.  Those sparse (load, earlier)
//     pair counts place each CMAS group's trigger (paper: "the instruction
//     which is 512 instructions away from the cache miss instruction is
//     defined as a trigger instruction").  The targets are known only once
//     profiling ends, so every load is counted in the same pass.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "isa/program.hpp"
#include "mem/memory_system.hpp"
#include "sim/functional.hpp"

namespace hidisc::compiler {

struct InstrProfile {
  std::uint64_t executions = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t l1_misses = 0;

  [[nodiscard]] double miss_rate() const noexcept {
    return mem_accesses == 0
               ? 0.0
               : static_cast<double>(l1_misses) /
                     static_cast<double>(mem_accesses);
  }
};

struct CacheProfile {
  // Indexed by static instruction.
  std::vector<InstrProfile> per_instr;
  std::uint64_t dynamic_instructions = 0;
  std::uint64_t total_l1_misses = 0;

  // Static instructions whose miss behaviour crosses the thresholds.
  [[nodiscard]] std::vector<std::int32_t> probable_miss_instructions(
      double min_miss_rate, std::uint64_t min_misses) const;
};

class ProfileObserver {
 public:
  // A negative `trigger_distance` counts no lookbacks (no triggers).
  ProfileObserver(const isa::Program& prog, const mem::MemConfig& mem_cfg,
                  int trigger_distance);

  // Consumes the next chunk of the profiled run's trace, in run order.
  void observe(std::span<const sim::TraceEntry> chunk);

  [[nodiscard]] const CacheProfile& profile() const noexcept {
    return profile_;
  }

  // Over every dynamic occurrence of the loads in `targets`, the static
  // instruction that retired `trigger_distance` dynamic instructions
  // earlier, the most frequent one winning and ties going to the lowest
  // index; -1 when no target ran that far into the run.
  [[nodiscard]] std::int32_t select_trigger(
      const std::vector<std::int32_t>& targets) const;

 private:
  enum class Kind : std::uint8_t { Other, Load, Store };

  std::vector<Kind> kind_;  // per static instruction; PREF is Other
  mem::MemorySystem memsys_;
  CacheProfile profile_;
  int distance_;
  std::vector<std::int32_t> ring_;  // the last distance_ static indices
  std::size_t ring_pos_ = 0;        // once full: the entry distance_ back
  // (load << 32 | earlier) -> dynamic occurrences of the load with
  // `earlier` distance_ instructions before it.
  std::unordered_map<std::uint64_t, std::uint64_t> lookback_;
};

// Profiles `prog` with one streamed functional run.  Throws sim::ExecError
// when the program does not halt within `max_steps`.
[[nodiscard]] ProfileObserver profile_run(
    const isa::Program& prog, const mem::MemConfig& mem_cfg,
    int trigger_distance,
    std::uint64_t max_steps = sim::Functional::kDefaultMaxSteps);

}  // namespace hidisc::compiler
