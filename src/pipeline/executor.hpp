// The DAG executor: runs an artifact graph (pipeline/graph.hpp) in pure
// dependency order over the lab thread pool, with every cache layer
// consulted per node:
//
//   compile node  →  session memo (cross-run, in-process)
//   sim node      →  the on-disk ResultCache: probed first — a fully warm
//                    plan runs no functional simulation — and on a miss
//                    probed again under the key's lease, so processes
//                    sharing the directory simulate each key once
//
// There are no phase barriers: each compile node's completion dispatches
// its cells' sim nodes, and each sim node probes, leases and simulates in
// one task, running its own streamed functional run through the
// machine's trace window.  A Pipeline object is a session: compile
// artifacts are shared across every run() it serves.  lab::run_plan
// creates one per plan, which still shares compile nodes across the
// plan's cells and, through the ResultCache, results across processes.
//
// Determinism: results are indexed by cell and every node's output is
// independent of scheduling, so run() is bit-identical for any pool size.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lab/result_cache.hpp"
#include "lab/thread_pool.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/stats.hpp"

namespace hidisc::pipeline {

class Pipeline {
 public:
  struct Stores {
    const lab::ResultCache* results = nullptr;  // sim-node cache (optional)
    // Distrust the on-disk cache: probe nothing, overwrite everything.
    // The in-process session memo still applies (identical artifacts).
    bool refresh = false;
  };

  Pipeline() = default;
  explicit Pipeline(Stores stores) : stores_(stores) {}

  struct Outcome {
    std::vector<lab::CellResult> cells;  // parallel to the submitted cells
    NodeStats nodes;
  };

  // Invoked (serialized) as each cell finishes, in completion order.
  using CellHook = std::function<void(
      std::size_t index, const lab::CellResult& result, std::size_t done,
      std::size_t total, bool from_cache)>;

  // Executes the node set for `cells` on `pool`.  Never throws for
  // per-cell failures — they land in the CellResult error slots.
  [[nodiscard]] Outcome run(const std::vector<lab::Cell>& cells,
                            lab::ThreadPool& pool,
                            const CellHook& on_cell = {});

  // Compile without sim nodes: the bench harness's prepare path.  Runs
  // through the same artifact function (and session memo) as run().
  // Throws std::runtime_error on compile failure (the direct bench path
  // has no error slots to carry it).
  [[nodiscard]] std::shared_ptr<const CompileArtifact> prepare(
      const isa::Program& program, const compiler::CompileOptions& opt);

 private:
  struct Exec;  // per-run executor state (executor.cpp)

  [[nodiscard]] std::shared_ptr<const CompileArtifact> obtain_compile(
      const CompileNode& n, bool* memo_hit);

  Stores stores_;
  std::mutex memo_mu_;
  // Session memo, keyed by compile key; artifacts are immutable so sharing
  // across runs (and across this session's threads) is free.
  std::map<std::string, std::shared_ptr<const CompileArtifact>> compile_memo_;
};

}  // namespace hidisc::pipeline
