// The paper's tables and figures (EXPERIMENTS.md), rendered from a plan's
// results.
//
// One function keyed by plan name: "table2", "fig8", "fig9", "fig10" and
// "extra" render §5's Table 2 and Figures 8-10 plus the non-plotted DIS
// workloads; "ablation-trigger", "ablation-queues" and "ablation-predictor"
// render the §6 future-work ablations.  "paper" renders the Table 2, Fig 8,
// Fig 9, Fig 10 and extra sections in that order, since its cells are
// their union.  `hilab --plan NAME` prints the text after its cell table.
#pragma once

#include <string>

#include "lab/plan.hpp"
#include "lab/runner.hpp"

namespace hidisc::lab {

// The figure text of `plan` from `run`, whose cells must all be ok; empty
// for a plan that reproduces no figure.
[[nodiscard]] std::string figures(const ExperimentPlan& plan,
                                  const PlanRun& run);

}  // namespace hidisc::lab
