// hilab — the hidisc-lab experiment orchestrator CLI.
//
// Runs a named experiment plan (each reproducing one paper figure/table,
// or arbitrary sweeps) across a thread pool, memoizing workload
// compilation, consulting the persistent result cache, and exporting
// machine-readable JSON/CSV.  After its cell table it prints the paper
// table or figure the plan reproduces (lab/figures.hpp) when every cell is
// healthy and stdout is not an export target.
//
//   hilab --list
//   hilab --plan fig8 [--threads N] [--scale paper|test]
//         [--cache-dir DIR | --no-cache] [--refresh]
//         [--watchdog N] [--lockstep]
//         [--json FILE|-] [--csv FILE|-] [--quiet]
//
// Guarantees: results are bit-identical for every --threads value, and a
// second invocation against a warm cache simulates zero cells.  Any number
// of hilab processes may share one cache directory: a per-key lease in the
// result cache makes them simulate each content key once between them, and
// a run killed mid-plan resumes from the results it already stored.
//
// Exit codes: 0 = every cell healthy, 4 = partial failure (some cells
// failed; healthy cells still exported), 1 = infrastructure error (bad
// plan, broken cache dir, export I/O), 2 = usage (including an unknown
// --plan name, which lists the available plans).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "lab/export.hpp"
#include "lab/figures.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/thread_pool.hpp"
#include "parse_int.hpp"
#include "stats/table.hpp"

namespace {

using namespace hidisc;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --plan NAME [options]\n"
      "       %s --list\n"
      "options:\n"
      "  --plan NAME       experiment plan to run (see --list)\n"
      "  --threads N       threads that run tasks, this one included "
      "(default:\n"
      "                    HILAB_THREADS or all cores)\n"
      "  --scale SCALE     workload scale: paper (default) or test\n"
      "  --cache-dir DIR   result cache location (default: .hilab-cache)\n"
      "  --no-cache        disable the persistent result cache\n"
      "  --refresh         ignore existing cache entries, overwrite them\n"
      "  --watchdog N      override every cell's watchdog threshold\n"
      "  --lockstep        force the Lockstep scheduler on every cell\n"
      "  --override P:F=V  set machine-config field F to V on every cell\n"
      "                    whose preset is P ('*' = all presets); fields:\n"
      "                    dram, l2, fetch_width, watchdog (integer V) and\n"
      "                    prefetch (a spec KIND[:degN][:distN][:regionN]\n"
      "                    with KIND none, ipstride or sms, e.g.\n"
      "                    ipstride:deg4 — see docs/PREFETCH.md).\n"
      "                    Participates in content keys, so overridden runs\n"
      "                    never alias normal cache entries.\n"
      "                    Repeatable\n"
      "  --json FILE       export full results as JSON ('-' = stdout)\n"
      "  --csv FILE        export summary rows as CSV ('-' = stdout)\n"
      "  --quiet           suppress the per-cell progress line\n",
      argv0, argv0);
  return 2;
}

int list_plans() {
  std::printf("available plans (workload scale via --scale):\n");
  for (const auto& name : lab::plan_names()) {
    const auto plan = lab::make_plan(name, workloads::Scale::Paper);
    std::printf("  %-18s %3zu cells  %s\n", name.c_str(), plan.cells.size(),
                plan.description.c_str());
  }
  return 0;
}

// Unknown --plan is a usage error, not a runtime one: name the plans the
// user could have meant and exit 2.
int unknown_plan(const std::string& name) {
  std::fprintf(stderr, "hilab: unknown plan '%s'\navailable plans:\n",
               name.c_str());
  for (const auto& known : lab::plan_names())
    std::fprintf(stderr, "  %s\n", known.c_str());
  return 2;
}

// Applies one `PRESET:FIELD=VALUE` machine-config override to every cell
// whose preset name matches (or every cell, for '*').  Drives the
// cache-invalidation check (ctest hilab_invalidation): a preset-scoped
// config change must rerun exactly that preset's cells and nothing else.
void apply_override(lab::ExperimentPlan& plan, const std::string& spec) {
  const auto colon = spec.find(':');
  const auto eq = spec.find('=', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || eq == std::string::npos || eq < colon)
    throw std::runtime_error("--override needs PRESET:FIELD=VALUE, got '" +
                             spec + "'");
  const std::string preset = spec.substr(0, colon);
  const std::string field = spec.substr(colon + 1, eq - colon - 1);
  const std::string value_str = spec.substr(eq + 1);
  // The field name is validated before anything else — previously an
  // unknown field slipped through whenever no cell matched the preset,
  // and the value was parsed (and could be rejected) before the field
  // was even looked at.
  constexpr const char* kFieldList =
      "dram, l2, fetch_width, watchdog, prefetch";
  const bool known = field == "dram" || field == "l2" ||
                     field == "fetch_width" || field == "watchdog" ||
                     field == "prefetch";
  if (!known)
    throw std::runtime_error("--override: unknown field '" + field +
                             "' (fields: " + kFieldList + ")");
  // Latencies may be 0; a fetch width or watchdog of 0 would wedge every
  // cell, so they take the same minimum as --watchdog.
  const std::string what = "--override " + field;
  int latency = 0, fetch_width = 0;
  std::uint64_t watchdog = 0;
  mem::PrefetchConfig pf;
  if (field == "dram" || field == "l2") {
    latency = cli::parse_int<int>(what, value_str, 0);
  } else if (field == "fetch_width") {
    fetch_width = cli::parse_int<int>(what, value_str, 1);
  } else if (field == "watchdog") {
    watchdog = cli::parse_int<std::uint64_t>(what, value_str, 1);
  } else {
    // e.g. '*:prefetch=ipstride:deg4' — the value is a prefetch spec, not
    // an integer.
    try {
      pf = mem::parse_prefetch_spec(value_str);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("--override: ") + e.what());
    }
  }
  bool matched = false;
  for (auto& cell : plan.cells) {
    if (preset != "*" && preset != machine::preset_name(cell.preset))
      continue;
    matched = true;
    if (field == "dram") cell.config.mem.dram_latency = latency;
    else if (field == "l2") cell.config.mem.l2_latency = latency;
    else if (field == "fetch_width") cell.config.fetch_width = fetch_width;
    else if (field == "watchdog") cell.config.watchdog_cycles = watchdog;
    else if (field == "prefetch") cell.config.mem.prefetch = pf;
  }
  if (!matched)
    throw std::runtime_error("--override: no cell has preset '" + preset +
                             "' (presets: Superscalar, CP+AP, CP+CMP, "
                             "HiDISC, or '*')");
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_name, json_path, csv_path;
  std::vector<std::string> overrides;
  std::string cache_dir = ".hilab-cache";
  workloads::Scale scale = workloads::Scale::Paper;
  int threads = 0;  // 0 = no --threads: $HILAB_THREADS or all cores
  bool refresh = false, quiet = false, lockstep = false;
  std::uint64_t watchdog = 0;  // 0 = keep each cell's own threshold

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--list") return list_plans();
      if (arg == "--plan") plan_name = value();
      else if (arg == "--threads")
        threads = cli::parse_int<int>(arg, value(), 1);
      else if (arg == "--scale") {
        const std::string s = value();
        if (s == "paper") scale = workloads::Scale::Paper;
        else if (s == "test") scale = workloads::Scale::Test;
        else throw std::runtime_error("unknown scale: " + s);
      }
      else if (arg == "--cache-dir") cache_dir = value();
      else if (arg == "--no-cache") cache_dir.clear();
      else if (arg == "--refresh") refresh = true;
      else if (arg == "--watchdog")
        watchdog = cli::parse_int<std::uint64_t>(arg, value(), 1);
      else if (arg == "--lockstep") lockstep = true;
      else if (arg == "--override") overrides.push_back(value());
      else if (arg == "--json") json_path = value();
      else if (arg == "--csv") csv_path = value();
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else throw std::runtime_error("unknown option: " + arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hilab: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (plan_name.empty()) return usage(argv[0]);

  try {
    if (threads == 0) threads = lab::default_threads();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hilab: %s\n", e.what());
    return 2;
  }

  try {
    lab::ExperimentPlan plan;
    try {
      plan = lab::make_plan(plan_name, scale);
    } catch (const std::out_of_range&) {
      return unknown_plan(plan_name);
    }
    // --watchdog participates in content keys, so an overridden run never
    // aliases a normal run's cache entries; --lockstep deliberately does
    // not (both schedulers produce bit-identical results).
    if (watchdog != 0 || lockstep)
      for (auto& cell : plan.cells) {
        if (watchdog != 0) cell.config.watchdog_cycles = watchdog;
        if (lockstep)
          cell.config.scheduler = machine::SchedulerKind::Lockstep;
      }
    try {
      for (const auto& spec : overrides) apply_override(plan, spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hilab: %s\n", e.what());
      return 2;
    }

    const auto progress = [](const lab::Cell& cell, std::size_t done,
                             std::size_t total, bool from_cache) {
      std::fprintf(stderr, "[%3zu/%3zu] %-12s %-11s %-7s %s\n", done, total,
                   cell.workload.name.c_str(),
                   machine::preset_name(cell.preset), cell.tag.c_str(),
                   from_cache ? "(cached)" : "simulated");
    };

    lab::RunOptions opt;
    opt.threads = threads;
    opt.cache_dir = cache_dir;
    opt.refresh = refresh;
    if (!quiet) opt.on_cell = progress;
    const lab::PlanRun run = lab::run_plan(plan, opt);

    // An export aimed at stdout owns it: keep the human report off the pipe.
    const bool stdout_export = json_path == "-" || csv_path == "-";
    if (!stdout_export) {
      stats::Table table({"Workload", "Preset", "Tag", "Cycles", "IPC",
                          "L1 miss rate", "Source"});
      for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const auto& c = plan.cells[i];
        const auto& r = run.cells[i];
        if (r.ok()) {
          table.add_row({c.workload.name, machine::preset_name(c.preset),
                         c.tag.empty() ? "-" : c.tag,
                         std::to_string(r.result.cycles),
                         stats::Table::num(r.result.ipc),
                         stats::Table::num(r.result.l1.demand_miss_rate()),
                         r.from_cache ? "cache" : "sim"});
        } else {
          table.add_row({c.workload.name, machine::preset_name(c.preset),
                         c.tag.empty() ? "-" : c.tag, "-", "-", "-",
                         "FAILED(" + r.error_class + ")"});
        }
      }
      std::printf("=== plan %s: %s ===\n\n%s\n", plan.name.c_str(),
                  plan.description.c_str(), table.to_string().c_str());
      std::printf(
          "%zu cells: %zu simulated, %zu cache hits, %zu failed; "
          "%zu compilations (%zu from the compile index); %d threads; "
          "%.0f ms",
          plan.cells.size(), run.simulated, run.cache_hits, run.failed,
          run.preps, run.nodes.compile.hits,
          threads, run.wall_ms);
      if (run.sim_cycles_per_sec > 0.0)
        std::printf("; %.2f Mcycles/s", run.sim_cycles_per_sec / 1e6);
      std::printf("\n");
      const pipeline::NodeStats& n = run.nodes;
      std::printf(
          "pipeline nodes: compile %zu/%zu rebuilt (%zu from the compile "
          "index), sim %zu/%zu rebuilt (%zu cached)\n",
          n.compile.rebuilt, n.compile.total, n.compile.hits,
          n.sim.rebuilt, n.sim.total, n.sim.hits);
      std::printf(
          "phase wall time: compile %.0f ms (+%.0f ms cached), "
          "sim %.0f ms (+%.0f ms cached)\n",
          n.compile.ms_rebuilt, n.compile.ms_hits, n.sim.ms_rebuilt,
          n.sim.ms_hits);
      // The paper's tables and figures this plan reproduces, drawn from
      // healthy cells only.
      const std::string text = run.ok() ? lab::figures(plan, run) : "";
      if (!text.empty()) std::printf("\n%s", text.c_str());
    }

    const lab::ExportMeta meta{threads};
    if (!json_path.empty())
      lab::write_text_file(json_path, lab::to_json(plan, run, meta));
    if (!csv_path.empty())
      lab::write_text_file(csv_path, lab::to_csv(plan, run));

    if (!run.ok()) {
      // Partial failure: healthy cells are exported above; the failed
      // ones get a stderr summary and a distinct exit code so harnesses
      // can tell "some cells broke" from "the run never happened".
      std::fprintf(stderr, "hilab: %zu/%zu cells failed:\n", run.failed,
                   plan.cells.size());
      for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const auto& r = run.cells[i];
        if (r.ok()) continue;
        const auto& c = plan.cells[i];
        std::fprintf(stderr, "  %s/%s%s%s [%s] %s\n",
                     c.workload.name.c_str(),
                     machine::preset_name(c.preset),
                     c.tag.empty() ? "" : "/", c.tag.c_str(),
                     r.error_class.c_str(), r.error.c_str());
      }
      return 4;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hilab: %s\n", e.what());
    return 1;
  }
}
