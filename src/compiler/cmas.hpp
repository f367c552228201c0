// CMAS (Cache Miss Access Slice) extraction (paper §3.1, §4.2).
//
// A CMAS group is a probable-miss load together with its backward slice —
// the address-producing instructions the CMP must execute to prefetch that
// load's data.  Groups sharing instructions are merged (their slices would
// otherwise race on the CMP).  Each group receives a trigger instruction
// selected from the profiling run's lookback counts at the configured
// dynamic distance (512 in the paper); when the trigger is fetched, the
// machine forks the group's slice onto the CMP.
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/profiler.hpp"
#include "isa/program.hpp"

namespace hidisc::compiler {

struct CmasGroup {
  std::int16_t id = -1;
  std::vector<std::int32_t> members;  // static indices, ascending
  std::vector<std::int32_t> targets;  // probable-miss loads in the group
  std::int32_t trigger = -1;          // static index carrying is_trigger
};

struct CmasOptions {
  double miss_rate_threshold = 0.05;
  std::uint64_t min_misses = 64;
  // Counted by the profiling run (ProfileObserver), which compile() sets
  // up with this distance.
  int trigger_distance = 512;

  bool operator==(const CmasOptions&) const = default;
};

// Backward slice of `target` over register dependences: includes loads and
// integer compute, never stores, control flow, or floating point (the CMP
// has only integer and load/store units and must not alter program state).
[[nodiscard]] std::vector<std::int32_t> backward_slice(
    const isa::Program& prog, std::int32_t target);

// Identifies probable-miss loads from `profile`, builds merged CMAS groups,
// selects their triggers from its lookback counts, and writes in_cmas/
// cmas_group/is_trigger/trigger_group annotations into `prog`.
std::vector<CmasGroup> extract_cmas(isa::Program& prog,
                                    const ProfileObserver& profile,
                                    const CmasOptions& opt);

}  // namespace hidisc::compiler
