#include "lab/plan.hpp"

#include <stdexcept>

namespace hidisc::lab {

namespace {

const char* scale_name(workloads::Scale s) {
  return s == workloads::Scale::Paper ? "paper" : "test";
}

// Figure 8 plot order first, then the rest of the DIS suites.  Seeds are
// the canonical defaults from workloads/common.hpp.
std::vector<WorkloadSpec> build_registry() {
  return {
      {"DM", &workloads::make_dm, workloads::Scale::Paper, 6},
      {"RayTray", &workloads::make_raytrace, workloads::Scale::Paper, 7},
      {"Pointer", &workloads::make_pointer, workloads::Scale::Paper, 1},
      {"Update", &workloads::make_update, workloads::Scale::Paper, 2},
      {"Field", &workloads::make_field, workloads::Scale::Paper, 3},
      {"Neighborhood", &workloads::make_neighborhood, workloads::Scale::Paper,
       4},
      {"TC", &workloads::make_transitive, workloads::Scale::Paper, 5},
      {"Matrix", &workloads::make_matrix, workloads::Scale::Paper, 8},
      {"CornerTurn", &workloads::make_cornerturn, workloads::Scale::Paper, 9},
      {"FFT", &workloads::make_fft, workloads::Scale::Paper, 10},
      {"Image", &workloads::make_image, workloads::Scale::Paper, 11},
  };
}

// The seven benchmarks of the paper's Figure 8, in plot order.
std::vector<WorkloadSpec> paper_specs(workloads::Scale scale) {
  std::vector<WorkloadSpec> specs;
  for (const char* n :
       {"DM", "RayTray", "Pointer", "Update", "Field", "Neighborhood", "TC"})
    specs.push_back(spec(n, scale));
  return specs;
}

std::vector<WorkloadSpec> extra_specs(workloads::Scale scale) {
  std::vector<WorkloadSpec> specs;
  for (const char* n : {"Matrix", "CornerTurn", "FFT", "Image"})
    specs.push_back(spec(n, scale));
  return specs;
}

// workloads x presets under one fixed config.
ExperimentPlan grid(std::string name, std::string description,
                    const std::vector<WorkloadSpec>& specs) {
  ExperimentPlan plan{std::move(name), std::move(description), {}};
  for (const auto& w : specs)
    for (const auto preset : all_presets())
      plan.cells.push_back(Cell{w, preset, {}, {}, ""});
  return plan;
}

}  // namespace

std::string WorkloadSpec::id() const {
  return name + "/" + scale_name(scale) + "/s" + std::to_string(seed);
}

const std::vector<WorkloadSpec>& workload_registry() {
  static const std::vector<WorkloadSpec> registry = build_registry();
  return registry;
}

WorkloadSpec spec(const std::string& name, workloads::Scale scale) {
  for (const auto& w : workload_registry())
    if (w.name == name) {
      WorkloadSpec s = w;
      s.scale = scale;
      return s;
    }
  throw std::out_of_range("unknown workload: " + name);
}

std::int64_t ExperimentPlan::find(const std::string& workload,
                                  machine::Preset preset,
                                  const std::string& tag) const {
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (cells[i].workload.name == workload && cells[i].preset == preset &&
        cells[i].tag == tag)
      return static_cast<std::int64_t>(i);
  return -1;
}

const std::vector<machine::Preset>& all_presets() {
  static const std::vector<machine::Preset> presets = {
      machine::Preset::Superscalar, machine::Preset::CPAP,
      machine::Preset::CPCMP, machine::Preset::HiDISC};
  return presets;
}

ExperimentPlan plan_fig8(workloads::Scale scale) {
  return grid("fig8", "per-benchmark speed-up vs. baseline superscalar",
              paper_specs(scale));
}

ExperimentPlan plan_fig9(workloads::Scale scale) {
  return grid("fig9", "L1 demand misses normalized to superscalar",
              paper_specs(scale));
}

ExperimentPlan plan_table2(workloads::Scale scale) {
  return grid("table2", "mean speed-up of the three architecture models",
              paper_specs(scale));
}

ExperimentPlan plan_extra(workloads::Scale scale) {
  return grid("extra", "the non-plotted DIS workloads under all presets",
              extra_specs(scale));
}

ExperimentPlan plan_fig10(workloads::Scale scale) {
  ExperimentPlan plan = latency_sweep(
      "fig10", {spec("Pointer", scale), spec("Neighborhood", scale)},
      all_presets(), {{4, 40}, {8, 80}, {12, 120}, {16, 160}});
  plan.description = "IPC of Pointer/Neighborhood across the (L2, DRAM) "
                     "latency sweep";
  return plan;
}

ExperimentPlan plan_prefetch(workloads::Scale scale) {
  // The four paper presets, plus CP+AP with a hardware prefetcher on the
  // L1D — "would a conventional prefetcher beat the CMP?" across the
  // Fig. 10 latency sweep.  The pf cells reuse the CPAP preset with a
  // distinct "+pf" tag so find() keeps the curves apart.
  ExperimentPlan plan{"prefetch",
                      "superscalar / CP+AP / CP+CMP / HiDISC / CP+AP+hw-"
                      "prefetch across the (L2, DRAM) latency sweep",
                      {}};
  mem::PrefetchConfig pf;
  pf.kind = mem::PrefetchKind::IpStride;
  pf.degree = 2;
  pf.distance = 4;
  for (const auto& w : {spec("Pointer", scale), spec("Neighborhood", scale)})
    for (const auto& [l2, dram] : std::vector<std::pair<int, int>>{
             {4, 40}, {8, 80}, {12, 120}, {16, 160}}) {
      machine::MachineConfig cfg;
      cfg.mem = {.l2_latency = l2, .dram_latency = dram};
      const std::string tag =
          std::to_string(l2) + "/" + std::to_string(dram);
      for (const auto preset : all_presets())
        plan.cells.push_back(Cell{w, preset, cfg, {}, tag});
      machine::MachineConfig pf_cfg = cfg;
      pf_cfg.mem.prefetch = pf;
      plan.cells.push_back(
          Cell{w, machine::Preset::CPAP, pf_cfg, {}, tag + "+pf"});
    }
  return plan;
}

ExperimentPlan plan_ablation_trigger(workloads::Scale scale) {
  ExperimentPlan plan{"ablation-trigger",
                      "CMAS trigger/fork distance (TC, Pointer) and dynamic "
                      "distance control (TC)",
                      {}};
  const WorkloadSpec tc = spec("TC", scale);
  for (const auto& w : {tc, spec("Pointer", scale)}) {
    plan.cells.push_back(Cell{w, machine::Preset::Superscalar, {}, {}, ""});
    for (const int distance : {64, 128, 256, 512, 1024, 2048}) {
      Cell c{w, machine::Preset::HiDISC, {}, {},
             "dist=" + std::to_string(distance)};
      c.compile.cmas.trigger_distance = distance;
      c.config.cmp_fork_lookahead = distance * 3 / 4;
      plan.cells.push_back(std::move(c));
    }
  }
  for (const int start : {64, 384, 2048})
    for (const bool dynamic : {false, true}) {
      Cell c{tc, machine::Preset::HiDISC, {}, {},
             (dynamic ? "dynamic@" : "static@") + std::to_string(start)};
      c.config.cmp_fork_lookahead = start;
      c.config.cmp_dynamic_distance = dynamic;
      plan.cells.push_back(std::move(c));
    }
  return plan;
}

ExperimentPlan plan_ablation_queues(workloads::Scale scale) {
  ExperimentPlan plan{"ablation-queues",
                      "LDQ/SDQ capacity (Field), CMP prefetch buffer, L2 bus "
                      "occupancy and fork mode (Update, TC)",
                      {}};
  const WorkloadSpec field = spec("Field", scale);
  const WorkloadSpec update = spec("Update", scale);
  const WorkloadSpec tc = spec("TC", scale);
  for (const auto& w : {field, update, tc})
    plan.cells.push_back(Cell{w, machine::Preset::Superscalar, {}, {}, ""});
  for (const std::size_t cap : {2u, 4u, 8u, 16u, 32u, 64u}) {
    Cell c{field, machine::Preset::CPAP, {}, {},
           "ldq=" + std::to_string(cap)};
    c.config.queue_capacity = cap;
    plan.cells.push_back(std::move(c));
  }
  for (const int buf : {1, 2, 4, 8, 16, 32}) {
    Cell c{update, machine::Preset::HiDISC, {}, {},
           "pfbuf=" + std::to_string(buf)};
    c.config.cmp_prefetch_buffer = buf;
    plan.cells.push_back(std::move(c));
  }
  for (const int bus : {0, 4, 8, 16})
    for (const auto preset :
         {machine::Preset::Superscalar, machine::Preset::HiDISC}) {
      Cell c{update, preset, {}, {}, "bus=" + std::to_string(bus)};
      c.config.mem.l2_bus_cycles = bus;
      plan.cells.push_back(std::move(c));
    }
  for (const auto& w : {update, tc}) {
    plan.cells.push_back(Cell{w, machine::Preset::HiDISC, {}, {}, "paper"});
    Cell c{w, machine::Preset::HiDISC, {}, {}, "chaining"};
    c.config.cmp_chaining = true;
    c.config.cmp_targets_per_fork = 256;
    plan.cells.push_back(std::move(c));
  }
  return plan;
}

ExperimentPlan plan_ablation_predictor(workloads::Scale scale) {
  ExperimentPlan plan{"ablation-predictor",
                      "bimodal vs. gshare branch predictor (DM, Update)",
                      {}};
  for (const auto& w : {spec("DM", scale), spec("Update", scale)})
    for (const auto kind :
         {uarch::PredictorKind::Bimodal, uarch::PredictorKind::GShare})
      for (const auto preset :
           {machine::Preset::Superscalar, machine::Preset::HiDISC}) {
        Cell c{w, preset, {}, {},
               kind == uarch::PredictorKind::Bimodal ? "bimodal" : "gshare"};
        c.config.predictor_kind = kind;
        plan.cells.push_back(std::move(c));
      }
  return plan;
}

ExperimentPlan plan_paper(workloads::Scale scale) {
  ExperimentPlan plan{"paper", "the full paper evaluation suite", {}};
  for (const auto& sub :
       {plan_fig8(scale), plan_fig10(scale), plan_extra(scale)})
    plan.cells.insert(plan.cells.end(), sub.cells.begin(), sub.cells.end());
  // fig9/table2 share fig8's cell grid, so fig8 + fig10 + extra covers
  // every distinct cell of the evaluation.
  return plan;
}

ExperimentPlan latency_sweep(
    const std::string& name, const std::vector<WorkloadSpec>& specs,
    const std::vector<machine::Preset>& presets,
    const std::vector<std::pair<int, int>>& latencies) {
  ExperimentPlan plan{name, "latency sweep", {}};
  for (const auto& w : specs)
    for (const auto& [l2, dram] : latencies) {
      machine::MachineConfig cfg;
      cfg.mem = {.l2_latency = l2, .dram_latency = dram};
      const std::string tag =
          std::to_string(l2) + "/" + std::to_string(dram);
      for (const auto preset : presets)
        plan.cells.push_back(Cell{w, preset, cfg, {}, tag});
    }
  return plan;
}

const std::vector<std::string>& plan_names() {
  static const std::vector<std::string> names = {
      "fig8", "fig9", "fig10", "table2", "extra", "paper", "prefetch",
      "ablation-trigger", "ablation-queues", "ablation-predictor"};
  return names;
}

ExperimentPlan make_plan(const std::string& name, workloads::Scale scale) {
  if (name == "fig8") return plan_fig8(scale);
  if (name == "fig9") return plan_fig9(scale);
  if (name == "fig10") return plan_fig10(scale);
  if (name == "table2") return plan_table2(scale);
  if (name == "extra") return plan_extra(scale);
  if (name == "paper") return plan_paper(scale);
  if (name == "prefetch") return plan_prefetch(scale);
  if (name == "ablation-trigger") return plan_ablation_trigger(scale);
  if (name == "ablation-queues") return plan_ablation_queues(scale);
  if (name == "ablation-predictor") return plan_ablation_predictor(scale);
  throw std::out_of_range("unknown plan: " + name +
                          " (try `hilab --list`)");
}

}  // namespace hidisc::lab
