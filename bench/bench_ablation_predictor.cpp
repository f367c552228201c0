// Ablation: does a better branch predictor shrink HiDISC's advantage?
// The paper's Table 1 machine uses a bimodal predictor; part of the CMP's
// benefit comes from resolving miss-dependent branches faster (prefetched
// loads feed the comparisons).  A gshare predictor removes some of the
// same stalls from the baseline, so the gap narrows on branchy kernels.
// Cells: lab plan "ablation-predictor".
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace hidisc;
  using machine::Preset;
  printf("=== Ablation: branch predictor (bimodal vs. gshare) ===\n\n");

  const auto plan = lab::plan_ablation_predictor();
  const auto run = bench::run_checked(plan);

  stats::Table table({"Benchmark", "Predictor", "Base mispredict rate",
                      "Base cycles", "HiDISC speed-up"});
  for (const auto i : bench::rows(plan, Preset::Superscalar, "")) {
    const auto& c = plan.cells[i];
    const auto& base = run.cells[i].result;
    const auto& hd = run.at(plan, c.workload.name, Preset::HiDISC, c.tag);
    table.add_row({c.workload.name, c.tag,
                   stats::Table::num(base.branch.mispredict_rate()),
                   std::to_string(base.cycles),
                   bench::speedup(base, hd.result)});
  }
  printf("%s\n", table.to_string().c_str());
  return 0;
}
