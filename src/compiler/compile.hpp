// The HiDISC compiler driver (paper §4, Figure 4).
//
// Pipeline: streamed functional profiling run -> cache-access profile and
// trigger lookback counts (profiler.hpp) -> CMAS extraction (annotates the
// original binary) -> stream separation with communication insertion
// (produces the decoupled binary).  The returned `Compilation` carries
// both binaries:
//
//   * `original`  — single-stream, CMAS/trigger annotated: input for the
//     Superscalar and CP+CMP machine configurations;
//   * `separated` — AS/CS annotated with queue communications: input for
//     the CP+AP and full HiDISC configurations.
//
// CMAS annotations are applied before separation so that the marks travel
// with the instructions into the separated binary; group ids are valid for
// both.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "compiler/cmas.hpp"
#include "compiler/profiler.hpp"
#include "compiler/slicer.hpp"
#include "isa/program.hpp"

namespace hidisc::compiler {

// The profiling pass runs on the default hierarchy, mem::MemConfig{}.
struct CompileOptions {
  std::uint64_t max_steps = sim::Functional::kDefaultMaxSteps;
  CmasOptions cmas{};
  bool enable_cmas = true;
  // Flow-sensitive pruning of producer-site queue transfers (§6.3); off
  // reproduces the purely flow-insensitive separator for ablation.
  bool flow_sensitive_comm = true;

  bool operator==(const CompileOptions&) const = default;
};

struct Compilation {
  isa::Program original;
  isa::Program separated;
  std::unordered_map<std::int32_t, std::int32_t> ldq_partner;
  std::unordered_map<std::int32_t, std::int32_t> sdq_partner;
  std::vector<CmasGroup> groups;  // member indices refer to `original`
  CacheProfile profile;
  // Separation summary.
  std::size_t access_count = 0;
  std::size_t compute_count = 0;
  std::size_t inserted_pops = 0;
  std::size_t pruned_transfers = 0;
};

// Compiles a conventional sequential binary.  Throws on programs that do
// not halt within `max_steps` or already carry annotations.
[[nodiscard]] Compilation compile(const isa::Program& prog,
                                  const CompileOptions& opt = {});

}  // namespace hidisc::compiler
