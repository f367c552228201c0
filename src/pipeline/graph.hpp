// The artifact DAG: typed, immutable nodes for the compile → trace →
// simulate pipeline (docs/PIPELINE.md).
//
//   CompileNode   one per distinct (workload spec | program, compile
//                 options); produces a Compilation plus the encoded
//                 image of both its binaries (original + separated).
//   TraceNode     one per (compile node, separator mode) a cell demands;
//                 produces the functional trace of that exact binary.
//   SimNode       one per cell; consumes its trace node's output and the
//                 machine (preset, config) to produce a lab::CellResult.
//                 Cells with equal sim keys simulate once per run: the
//                 first to probe runs, later ones wait for its outcome.
//
// Artifacts (CompileArtifact / TraceArtifact) are write-once and shared
// by shared_ptr — across nodes within a run, across runs via the
// Pipeline session memo, and across processes via the on-disk stores.
// Edges are content-addressed (pipeline/keys.hpp): a node's key is
// derived purely from its upstream content, so execution order falls out
// of the dependency structure and nothing else — there are no phase
// barriers; a fast workload's sim nodes run while a slow workload is
// still compiling.
//
// Failure is data, not control flow: a failed compile or trace artifact
// carries its error string, and the executor poisons exactly the
// downstream nodes that depended on it (the lab runner's fault-isolation
// contract, preserved verbatim: error classes "prep" / "trace" / "sim" /
// "deadlock:<cause>").
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
#include "sim/functional.hpp"

namespace hidisc::pipeline {

// Which of a compilation's two binaries a node consumes.
enum class Mode : std::uint8_t { Original, Separated };

[[nodiscard]] constexpr Mode mode_for(machine::Preset p) noexcept {
  return machine::uses_separated_binary(p) ? Mode::Separated
                                           : Mode::Original;
}

// Write-once output of a compile node.  Both binary images are encoded
// and hashed for sim keys eagerly: that is cheap next to compilation and
// done once, where a plan has several cells per image.
struct CompileArtifact {
  compiler::Compilation comp;
  std::vector<std::uint8_t> orig_image, sep_image;  // isa::save_program
  lab::ImageKeyState orig_key, sep_key;  // lab::image_key_state of each
  std::string error;  // non-empty = compile failed (sticky)

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
  [[nodiscard]] const isa::Program& binary(Mode m) const noexcept {
    return m == Mode::Separated ? comp.separated : comp.original;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& image(Mode m) const noexcept {
    return m == Mode::Separated ? sep_image : orig_image;
  }
  [[nodiscard]] const lab::ImageKeyState& image_key(Mode m) const noexcept {
    return m == Mode::Separated ? sep_key : orig_key;
  }
};

// Write-once output of a trace node.
struct TraceArtifact {
  sim::Trace trace;
  std::string error;  // non-empty = functional execution failed (sticky)

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

struct TraceNode;
struct SimNode;

struct CompileNode {
  std::string key;  // pipeline::compile_key
  lab::WorkloadSpec spec;                  // source, unless `program` set
  const isa::Program* program = nullptr;   // caller-owned alternative source
  compiler::CompileOptions options;
  std::string display;  // workload display name for error messages

  std::vector<TraceNode*> traces;  // dependent trace nodes
  std::vector<SimNode*> sims;      // every sim node under this compile

  // Executor state (guarded by the run lock after submission):
  std::shared_ptr<const CompileArtifact> out;
  bool from_memo = false;
};

struct TraceNode {
  CompileNode* compile = nullptr;
  Mode mode = Mode::Original;
  // pipeline::trace_key — derivable only once the compile artifact (the
  // binary image) exists; filled by the executor when it dispatches the
  // node, so a run whose sims all hit the result cache computes none.
  std::string key;

  // Executor state (guarded by the run lock):
  std::shared_ptr<const TraceArtifact> out;
  bool started = false;  // a demanding sim has dispatched this node
  bool done = false;
  std::vector<SimNode*> waiting;  // sims blocked on this trace
};

struct SimNode {
  TraceNode* trace = nullptr;
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
  std::deque<TraceNode> traces;
  std::deque<SimNode> sims;
};

// Builds the deduplicated DAG for `cells`: compile nodes keyed by
// content, trace nodes by (compile, mode), one sim node per cell.  The
// returned graph holds pointers into `cells`, which must outlive it.
[[nodiscard]] Graph build_graph(const std::vector<lab::Cell>& cells);

}  // namespace hidisc::pipeline
