// Shared infrastructure for the paper-reproduction bench binaries.
//
// Each bench binary regenerates one table or figure of the paper
// (DESIGN.md §4 maps experiment ids to binaries).  The figure/table
// binaries (Fig. 8/9/10, Table 2) run whole plans through the hidisc-lab
// orchestrator (src/lab/); the ablation binaries, which iterate over
// bespoke config axes, use the direct prepare()/run_preset() path below:
// prepare() compiles, and run_preset() runs the streaming machine, which
// does its own functional simulation.  Nothing is memoized on this path.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "lab/runner.hpp"
#include "lab/thread_pool.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"
#include "stats/table.hpp"
#include "workloads/common.hpp"

namespace hidisc::bench {

struct PreparedWorkload {
  std::string name;
  compiler::Compilation comp;
  std::uint64_t max_steps = sim::Functional::kDefaultMaxSteps;
};

// Compiles `w`.  Throws on compile failure (bench binaries have no
// per-cell error slots).
inline PreparedWorkload prepare(const workloads::BuiltWorkload& w,
                                const compiler::CompileOptions& opt = {}) {
  return PreparedWorkload{w.name, compiler::compile(w.program, opt),
                          opt.max_steps};
}

inline machine::Result run_preset(const PreparedWorkload& p,
                                  machine::Preset preset,
                                  const machine::MachineConfig& cfg = {}) {
  const bool sep = machine::uses_separated_binary(preset);
  machine::Machine m(sep ? p.comp.separated : p.comp.original, preset,
                     cfg, p.max_steps);
  return m.run();
}

// Lab run options shared by the figure/table binaries: thread count from
// $HILAB_THREADS (default: all cores), persistent cache from
// $HILAB_CACHE_DIR (default: off, so bench runs stay self-contained).
inline lab::RunOptions lab_options() {
  lab::RunOptions opt;
  opt.threads = lab::default_threads();
  if (const char* dir = std::getenv("HILAB_CACHE_DIR")) opt.cache_dir = dir;
  return opt;
}

}  // namespace hidisc::bench
