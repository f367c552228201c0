// The artifact DAG: typed, immutable nodes for the compile → simulate
// pipeline (docs/PIPELINE.md).
//
//   CompileNode   one per distinct (workload spec | program, compile
//                 options); produces a Compilation plus the sim-key hash
//                 state of both its binaries (original + separated).
//   SimNode       one per cell; runs the machine (preset, config) over the
//                 binary its preset consumes, streaming its own functional
//                 run (DESIGN.md §6).  Cells with equal sim keys simulate
//                 once per run: the first to probe runs, later ones wait.
//
// Compile artifacts are write-once and shared by shared_ptr — across
// nodes within a run and across runs via the Pipeline session memo; sim
// results persist across processes in the on-disk ResultCache.  Edges
// are content-addressed (pipeline/keys.hpp): a node's key is derived
// purely from its upstream content, so execution order falls out of the
// dependency structure and nothing else — there are no phase barriers; a
// fast workload's sim nodes run while a slow workload is still compiling.
//
// Failure is data, not control flow: a failed compile artifact carries
// its error string, and the executor poisons exactly the downstream
// nodes that depended on it (the lab runner's fault-isolation contract:
// error classes "prep" / "trace" / "sim" / "deadlock:<cause>", where
// "trace" is a failed functional run).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/program.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"

namespace hidisc::pipeline {

// Which of a compilation's two binaries a node consumes.
enum class Mode : std::uint8_t { Original, Separated };

[[nodiscard]] constexpr Mode mode_for(machine::Preset p) noexcept {
  return machine::uses_separated_binary(p) ? Mode::Separated
                                           : Mode::Original;
}

// Write-once output of a compile node.  Both binary images are encoded
// and hashed for sim keys (lab::image_key_state) eagerly: that is cheap
// next to compilation and done once, where a plan has several cells per
// image.
struct CompileArtifact {
  compiler::Compilation comp;
  lab::ImageKeyState orig_key, sep_key;
  std::string error;  // non-empty = compile failed (sticky)

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
  [[nodiscard]] const isa::Program& binary(Mode m) const noexcept {
    return m == Mode::Separated ? comp.separated : comp.original;
  }
  [[nodiscard]] const lab::ImageKeyState& image_key(Mode m) const noexcept {
    return m == Mode::Separated ? sep_key : orig_key;
  }
};

struct SimNode;

struct CompileNode {
  std::string key;  // pipeline::compile_key
  lab::WorkloadSpec spec;                  // source, unless `program` set
  const isa::Program* program = nullptr;   // caller-owned alternative source
  compiler::CompileOptions options;
  std::string display;  // workload display name for error messages

  std::vector<SimNode*> sims;  // every sim node under this compile

  // Executor state (guarded by the run lock after submission):
  std::shared_ptr<const CompileArtifact> out;
};

struct SimNode {
  CompileNode* compile = nullptr;
  Mode mode = Mode::Original;       // which of its binaries the cell runs
  const lab::Cell* cell = nullptr;  // points into the submitted cell set
  std::size_t index = 0;            // result slot, = cell position
  lab::CellResult out;

  // Executor state (guarded by the run lock):
  bool done = false;
  std::vector<SimNode*> waiting;  // later sims with this node's sim key
};

// The node set for one submission.  Deques keep node addresses stable so
// cross-node pointers never dangle as the graph grows.
struct Graph {
  std::deque<CompileNode> compiles;
  std::deque<SimNode> sims;
};

// Builds the deduplicated DAG for `cells`: compile nodes keyed by
// content, one sim node per cell.  The
// returned graph holds pointers into `cells`, which must outlive it.
[[nodiscard]] Graph build_graph(const std::vector<lab::Cell>& cells);

}  // namespace hidisc::pipeline
