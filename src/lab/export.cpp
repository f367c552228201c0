#include "lab/export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lab/serialize.hpp"

namespace hidisc::lab {

namespace {

// Numbers in the field map are already canonically formatted; quote
// nothing numeric.  (Every visit_result_fields value is numeric/bool.)
void append_result_object(std::ostringstream& out,
                          const machine::Result& r) {
  out << '{';
  bool first = true;
  for (const auto& [name, value] : result_to_fields(r)) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << value;
  }
  out << '}';
}

// Minimal CSV quoting for free-text columns (error messages may contain
// commas and quotes).
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += '"';
  return out;
}

void append_phase_object(std::ostringstream& out, const char* name,
                         const pipeline::PhaseStats& ph, bool last = false) {
  out << "    \"" << name << "\": {\"total\": " << ph.total
      << ", \"hits\": " << ph.hits << ", \"rebuilt\": " << ph.rebuilt
      << ", \"failed\": " << ph.failed << ", \"skipped\": " << ph.skipped()
      << ", \"ms_hits\": " << format_double(ph.ms_hits)
      << ", \"ms_rebuilt\": " << format_double(ph.ms_rebuilt) << '}'
      << (last ? "\n" : ",\n");
}

}  // namespace

std::string to_json(const ExperimentPlan& plan, const PlanRun& run,
                    const ExportMeta& meta) {
  std::ostringstream out;
  out << "{\n"
      << "  \"plan\": \"" << json_escape(plan.name) << "\",\n"
      << "  \"description\": \"" << json_escape(plan.description) << "\",\n"
      << "  \"threads\": " << meta.threads << ",\n"
      << "  \"wall_ms\": " << format_double(run.wall_ms) << ",\n"
      << "  \"sim_cycles_per_sec\": " << format_double(run.sim_cycles_per_sec)
      << ",\n"
      << "  \"simulated\": " << run.simulated << ",\n"
      << "  \"cache_hits\": " << run.cache_hits << ",\n"
      << "  \"failed\": " << run.failed << ",\n"
      << "  \"nodes\": {\n";
  append_phase_object(out, "compile", run.nodes.compile);
  append_phase_object(out, "sim", run.nodes.sim, /*last=*/true);
  out << "  },\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& c = plan.cells[i];
    const CellResult& r = run.cells[i];
    out << "    {\"workload\": \"" << json_escape(c.workload.name)
        << "\", \"preset\": \""
        << json_escape(machine::preset_name(c.preset)) << "\", \"tag\": \""
        << json_escape(c.tag) << "\", \"key\": \"" << json_escape(r.key)
        << "\", \"cached\": " << (r.from_cache ? "true" : "false")
        << ", \"wall_ms\": " << format_double(r.wall_ms)
        << ", \"sim_cycles_per_sec\": "
        << format_double(r.sim_cycles_per_sec)
        << ", \"orig_dynamic_instructions\": "
        << r.orig_dynamic_instructions
        << ", \"ok\": " << (r.ok() ? "true" : "false");
    if (r.ok()) {
      out << ", \"result\": ";
      append_result_object(out, r.result);
    } else {
      // Failed cell: the attached diagnostics travel with the export, the
      // meaningless Result does not.
      out << ", \"error\": \"" << json_escape(r.error)
          << "\", \"error_class\": \"" << json_escape(r.error_class)
          << "\", \"diagnostic\": "
          << (r.diagnostic_json.empty() ? "null" : r.diagnostic_json);
    }
    out << '}' << (i + 1 < plan.cells.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string to_csv(const ExperimentPlan& plan, const PlanRun& run) {
  std::ostringstream out;
  out << "workload,preset,tag,cached,ok,error_class,cycles,instructions,ipc,"
         "l1_miss_rate,l1_demand_misses,l2_demand_misses,"
         "branch_mispredict_rate,cmas_forks,wall_ms,error\n";
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& c = plan.cells[i];
    const CellResult& r = run.cells[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s,%s,%s,%d,%d,%s,%llu,%llu,%.6f,%.6f,%llu,%llu,%.6f,"
                  "%llu,%.3f,",
                  c.workload.name.c_str(), machine::preset_name(c.preset),
                  c.tag.c_str(), r.from_cache ? 1 : 0, r.ok() ? 1 : 0,
                  r.error_class.c_str(),
                  static_cast<unsigned long long>(r.result.cycles),
                  static_cast<unsigned long long>(r.result.instructions),
                  r.result.ipc, r.result.l1.demand_miss_rate(),
                  static_cast<unsigned long long>(r.result.l1.demand_misses()),
                  static_cast<unsigned long long>(r.result.l2.demand_misses()),
                  r.result.branch.mispredict_rate(),
                  static_cast<unsigned long long>(r.result.cmas_forks),
                  r.wall_ms);
    out << line;
    if (!r.ok()) out << csv_quote(r.error);
    out << '\n';
  }
  return out.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("hilab: cannot write " + path);
  out << text;
  if (!out.flush())
    throw std::runtime_error("hilab: short write to " + path);
}

}  // namespace hidisc::lab
