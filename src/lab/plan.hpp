// Declarative experiment plans for the hidisc-lab orchestrator.
//
// A plan enumerates (workload, preset, machine-config) cells; the runner
// (runner.hpp) executes them — in parallel, memoizing shared preparation
// and consulting the on-disk result cache — and returns results in cell
// order, so a plan is a pure description of *what* to measure, never of
// *how* it is scheduled.
//
// Named plans reproduce the paper's figures/tables (fig8, fig9, fig10,
// table2, extra) and its future-work ablations (ablation-*);
// `latency_sweep` builds arbitrary (L2, DRAM) sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "machine/config.hpp"
#include "workloads/common.hpp"

namespace hidisc::lab {

// A workload named by its generator, not by a built program: building is
// deterministic in (maker, scale, seed), so the spec is the identity
// pipeline::compile_key hashes, and two cells with equal specs share one
// compilation.
struct WorkloadSpec {
  std::string name;  // display name; matches BuiltWorkload::name
  workloads::BuiltWorkload (*make)(workloads::Scale, std::uint64_t) = nullptr;
  workloads::Scale scale = workloads::Scale::Paper;
  std::uint64_t seed = 0;

  [[nodiscard]] workloads::BuiltWorkload build() const {
    return make(scale, seed);
  }
  // Stable identity string (display name + scale + seed).
  [[nodiscard]] std::string id() const;
};

// The registry of all DIS workloads with their canonical seeds.  `spec`
// looks one up by display name (throws std::out_of_range on a bad name).
[[nodiscard]] const std::vector<WorkloadSpec>& workload_registry();
[[nodiscard]] WorkloadSpec spec(const std::string& name,
                                workloads::Scale scale);

// One experiment cell: simulate `workload` under `preset` / `config`,
// compiled with `compile`.  `tag` is a free-form label for sweeps (e.g.
// the "12/120" latency point of Figure 10); it participates in display
// and export but not in result identity.
struct Cell {
  WorkloadSpec workload;
  machine::Preset preset = machine::Preset::Superscalar;
  machine::MachineConfig config{};
  compiler::CompileOptions compile{};
  std::string tag;
};

struct ExperimentPlan {
  std::string name;
  std::string description;
  std::vector<Cell> cells;

  // Index of the first cell matching (workload display name, preset,
  // tag); -1 when absent.  Cell lookups in the figure renderers
  // (figures.hpp) go through this so the table code is independent of
  // cell ordering.
  [[nodiscard]] std::int64_t find(const std::string& workload,
                                  machine::Preset preset,
                                  const std::string& tag = "") const;
};

// The four presets in the paper's column order.
[[nodiscard]] const std::vector<machine::Preset>& all_presets();

// Named plans ---------------------------------------------------------------
//
// fig8 / fig9 / table2 share one cell grid (paper suite x four presets,
// Table 1 config); they are distinct names so exports self-describe, and
// the result cache makes re-running the shared cells free.
[[nodiscard]] ExperimentPlan plan_fig8(
    workloads::Scale scale = workloads::Scale::Paper);
[[nodiscard]] ExperimentPlan plan_fig9(
    workloads::Scale scale = workloads::Scale::Paper);
[[nodiscard]] ExperimentPlan plan_table2(
    workloads::Scale scale = workloads::Scale::Paper);
// Pointer + Neighborhood under the four presets across the paper's
// (L2, DRAM) latency sweep {4/40, 8/80, 12/120, 16/160}.
[[nodiscard]] ExperimentPlan plan_fig10(
    workloads::Scale scale = workloads::Scale::Paper);
// The non-plotted DIS workloads (Matrix, CornerTurn, FFT, Image).
[[nodiscard]] ExperimentPlan plan_extra(
    workloads::Scale scale = workloads::Scale::Paper);
// Union of every paper plan: the whole evaluation in one invocation.
[[nodiscard]] ExperimentPlan plan_paper(
    workloads::Scale scale = workloads::Scale::Paper);
// The Fig. 10 sweep plus a fifth curve: CP+AP with a hardware prefetcher
// on the L1D (tag suffix "+pf"), answering "would a conventional
// prefetcher beat the CMP?".
[[nodiscard]] ExperimentPlan plan_prefetch(
    workloads::Scale scale = workloads::Scale::Paper);

// Ablations of the paper's §6 future-work mechanisms, rendered by
// figures.hpp.  Each sweep point is a cell tagged with its
// axis value ("dist=256", "static@384", "ldq=4", "pfbuf=2", "bus=8",
// "paper"/"chaining", "bimodal"/"gshare"); the Superscalar base cells keep
// the Table 1 config and tag "".
//
// CMAS trigger/fork distance on TC and Pointer, and static vs. dynamic
// fork distance from three starting points on TC.
[[nodiscard]] ExperimentPlan plan_ablation_trigger(
    workloads::Scale scale = workloads::Scale::Paper);
// LDQ/SDQ capacity on Field (CP+AP); CMP prefetch buffer and L2 bus
// occupancy on Update; paper vs. chaining fork mode on Update and TC.
[[nodiscard]] ExperimentPlan plan_ablation_queues(
    workloads::Scale scale = workloads::Scale::Paper);
// Bimodal vs. gshare under Superscalar and HiDISC on DM and Update.
[[nodiscard]] ExperimentPlan plan_ablation_predictor(
    workloads::Scale scale = workloads::Scale::Paper);

// Arbitrary sweep builder: every workload x preset x (l2, dram) latency
// point, tagged "l2/dram".
[[nodiscard]] ExperimentPlan latency_sweep(
    const std::string& name, const std::vector<WorkloadSpec>& specs,
    const std::vector<machine::Preset>& presets,
    const std::vector<std::pair<int, int>>& latencies);

// Plan registry for the CLI.
[[nodiscard]] const std::vector<std::string>& plan_names();
// Throws std::out_of_range for unknown names.
[[nodiscard]] ExperimentPlan make_plan(const std::string& name,
                                       workloads::Scale scale);

}  // namespace hidisc::lab
