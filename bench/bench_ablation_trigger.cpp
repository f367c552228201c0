// Ablation (paper §6 future work: "the runtime control of the prefetching
// distance is another important task"): how the CMAS trigger/fork distance
// affects HiDISC, on the TC Stressmark (fire-and-forget row slices, where
// distance governs timeliness) and on Pointer (serial chase slices, which
// chain from the fetch point and are insensitive to it — exactly why the
// paper calls for dynamic control).  Cells: lab plan "ablation-trigger".
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace hidisc;
  using machine::Preset;
  printf("=== Ablation: CMAS trigger/fork distance ===\n\n");

  const auto plan = lab::plan_ablation_trigger();
  const auto run = bench::run_checked(plan);

  for (const auto& [name, title] :
       {std::pair{"TC", "TC (fire-and-forget row slices)"},
        std::pair{"Pointer", "Pointer (serial chase slices)"}}) {
    printf("--- %s ---\n", title);
    stats::Table table({"Distance", "HiDISC cycles", "Speed-up",
                        "Timely prefetch hits", "Late (in-flight) hits"});
    const auto& base = run.at(plan, name, Preset::Superscalar).result;
    for (const auto i : bench::rows(plan, Preset::HiDISC, "dist=", name)) {
      const auto& r = run.cells[i].result;
      table.add_row(
          {std::to_string(plan.cells[i].compile.cmas.trigger_distance),
           std::to_string(r.cycles), bench::speedup(base, r),
           std::to_string(r.l1.useful_prefetches),
           std::to_string(r.l1.late_fill_hits)});
    }
    printf("%s\n", table.to_string().c_str());
  }

  printf("--- Dynamic distance control (paper §6 future work) ---\n");
  {
    const auto& base = run.at(plan, "TC", Preset::Superscalar).result;
    stats::Table table({"Initial distance", "Static speed-up",
                        "Dynamic speed-up", "Adaptations"});
    for (const auto i : bench::rows(plan, Preset::HiDISC, "static@")) {
      const auto start = plan.cells[i].config.cmp_fork_lookahead;
      const auto& rd = run.at(plan, "TC", Preset::HiDISC,
                              "dynamic@" + std::to_string(start))
                           .result;
      table.add_row({std::to_string(start),
                     bench::speedup(base, run.cells[i].result),
                     bench::speedup(base, rd),
                     std::to_string(rd.distance_adaptations)});
    }
    printf("%s\n", table.to_string().c_str());
  }

  printf("Paper uses a fixed 512-instruction trigger window and flags the "
         "distance as a target for dynamic control (§6).  Serial chase\n"
         "slices chain from the fetch point, so the distance barely moves\n"
         "them — one motivation for dynamic control, which the last table\n"
         "implements: a late-vs-unused prefetch balance steers the fork\n"
         "distance and recovers near-best performance from any start.\n");
  return 0;
}
