// Shared infrastructure for the paper-reproduction bench binaries.
//
// Each bench binary regenerates one table or figure of the paper
// (DESIGN.md §4 maps experiment ids to binaries).  The figure/table
// binaries (Fig. 8/9/10, Table 2) run whole plans through the hidisc-lab
// orchestrator (src/lab/); the ablation binaries, which iterate over
// bespoke config axes, use the direct prepare()/run_preset() path below.
//
// Both paths sit on the same artifact pipeline (src/pipeline/,
// docs/PIPELINE.md): prepare() submits a compile node to a
// process-lifetime pipeline session, so two ablation loops over the same
// workload share one compilation.  run_preset() runs the streaming
// machine, which does its own functional simulation.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "lab/runner.hpp"
#include "lab/thread_pool.hpp"
#include "machine/machine.hpp"
#include "pipeline/executor.hpp"
#include "sim/functional.hpp"
#include "stats/table.hpp"
#include "workloads/common.hpp"

namespace hidisc::bench {

struct PreparedWorkload {
  std::string name;
  // Immutable artifact shared with the session memo (and with any other
  // PreparedWorkload for the same (program, options) pair).
  std::shared_ptr<const pipeline::CompileArtifact> compile;
  std::uint64_t max_steps = sim::Functional::kDefaultMaxSteps;

  [[nodiscard]] const compiler::Compilation& comp() const {
    return compile->comp;
  }
};

// One pipeline session per bench process: compile artifacts are memoized
// across every prepare() call.
inline pipeline::Pipeline& pipeline_session() {
  static pipeline::Pipeline session;
  return session;
}

// Compiles `w`.  Throws on compile failure (bench binaries have no
// per-cell error slots).
inline PreparedWorkload prepare(const workloads::BuiltWorkload& w,
                                const compiler::CompileOptions& opt = {}) {
  return PreparedWorkload{w.name, pipeline_session().prepare(w.program, opt),
                          opt.max_steps};
}

inline machine::Result run_preset(const PreparedWorkload& p,
                                  machine::Preset preset,
                                  const machine::MachineConfig& cfg = {}) {
  const bool sep = machine::uses_separated_binary(preset);
  machine::Machine m(sep ? p.comp().separated : p.comp().original, preset,
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
