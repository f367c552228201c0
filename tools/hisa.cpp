// hisa — command-line driver for the HiDISC toolchain.
//
//   hisa asm <in.s> <out.bin>        assemble HISA text to a binary image
//   hisa dis <in.bin|in.s>           disassemble a program
//   hisa run <in.bin|in.s> [--trace N] [--reg rX ...]
//                                    run on the functional simulator
//   hisa compile <in.s> [--out sep.bin] [--report]
//                                    run the HiDISC compiler, show streams
//   hisa sim <in.bin|in.s> [--machine ss|cpap|cpcmp|hidisc|all]
//            [--l2 N --mem N] [--watchdog N] [--deadlock-json FILE]
//                                    cycle-level simulation
//
// Inputs ending in .s/.asm are assembled on the fly; anything else is
// loaded as a saved binary image (see isa/encoding.hpp).
//
// Exit codes: 0 = success, 1 = input/assembly/simulation error,
// 2 = usage, 3 = machine deadlock (classified report on stderr; full
// JSON to --deadlock-json when given).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "diag/deadlock.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "isa/encoding.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "sim/functional.hpp"
#include "stats/table.hpp"

namespace {

using namespace hidisc;

// Where `sim --deadlock-json FILE` wants the report; consumed by the
// DeadlockError handler in main().
std::string g_deadlock_json_path;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: hisa <asm|dis|run|compile|sim> <file> [options]\n"
               "  asm <in.s> <out.bin>\n"
               "  dis <in>\n"
               "  run <in> [--trace N] [--reg rX]...\n"
               "  compile <in.s> [--out sep.bin] [--report]\n"
               "  sim <in> [--machine ss|cpap|cpcmp|hidisc|all]"
               " [--l2 N --mem N]\n"
               "      [--watchdog N] [--lockstep] [--deadlock-json FILE]"
               " [--verbose]\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 deadlock\n");
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "hisa: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool is_source(const std::string& path) {
  return path.ends_with(".s") || path.ends_with(".asm");
}

isa::Program load(const std::string& path) {
  if (is_source(path)) return isa::assemble(read_file(path));
  const auto bytes = read_file(path);
  return isa::load_program(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

int cmd_asm(const std::vector<std::string>& args) {
  if (args.size() != 2) usage();
  const auto prog = isa::assemble(read_file(args[0]));
  const auto image = isa::save_program(prog);
  std::ofstream out(args[1], std::ios::binary);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  std::printf("%zu instructions, %zu data bytes -> %s (%zu bytes)\n",
              prog.code.size(), prog.data.size(), args[1].c_str(),
              image.size());
  return 0;
}

int cmd_dis(const std::vector<std::string>& args) {
  if (args.size() != 1) usage();
  std::fputs(isa::disassemble(load(args[0])).c_str(), stdout);
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const auto prog = load(args[0]);
  std::size_t trace_n = 0;
  std::vector<int> regs;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--trace" && i + 1 < args.size())
      trace_n = std::stoul(args[++i]);
    else if (args[i] == "--reg" && i + 1 < args.size())
      regs.push_back(std::atoi(args[++i].c_str() + 1));
    else
      usage();
  }
  sim::Functional f(prog);
  if (trace_n > 0) {
    sim::TraceEntry e;
    for (std::size_t n = 0; n < trace_n && f.step(&e); ++n)
      std::printf("%8zu  [%d] %s\n", n, e.static_idx,
                  isa::disassemble(prog.code[e.static_idx]).c_str());
    if (!f.halted()) f.run();
  } else {
    f.run();
  }
  std::printf("halted after %llu instructions\n",
              static_cast<unsigned long long>(f.instructions()));
  for (const int r : regs)
    std::printf("  r%d = %lld\n", r,
                static_cast<long long>(f.reg(r)));
  std::printf("  memory digest = %016llx\n",
              static_cast<unsigned long long>(f.memory().digest()));
  return 0;
}

int cmd_compile(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const auto prog = load(args[0]);
  std::string out_path;
  bool report = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size())
      out_path = args[++i];
    else if (args[i] == "--report")
      report = true;
    else
      usage();
  }
  const auto comp = compiler::compile(prog);
  std::printf("access stream: %zu  computation stream: %zu  "
              "queue transfers: %zu  CMAS groups: %zu\n",
              comp.access_count, comp.compute_count, comp.inserted_pops,
              comp.groups.size());
  if (report) {
    std::printf("\nseparated binary:\n%s",
                isa::disassemble(comp.separated).c_str());
    std::printf("\nCMAS groups:\n");
    for (const auto& g : comp.groups) {
      std::printf("  group %d  trigger [%d]  members:", g.id, g.trigger);
      for (const auto m : g.members) std::printf(" %d", m);
      std::printf("\n");
    }
  }
  if (!out_path.empty()) {
    const auto image = isa::save_program(comp.separated);
    std::ofstream out(out_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    std::printf("separated binary -> %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_sim(const std::vector<std::string>& args) {
  if (args.empty()) usage();
  const auto prog = load(args[0]);
  std::string which = "all";
  bool verbose = false;
  machine::MachineConfig cfg;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--machine" && i + 1 < args.size())
      which = args[++i];
    else if (args[i] == "--l2" && i + 1 < args.size())
      cfg.mem.l2.hit_latency = std::atoi(args[++i].c_str());
    else if (args[i] == "--mem" && i + 1 < args.size())
      cfg.mem.dram_latency = std::atoi(args[++i].c_str());
    else if (args[i] == "--watchdog" && i + 1 < args.size())
      cfg.watchdog_cycles = std::stoull(args[++i]);
    else if (args[i] == "--lockstep")
      cfg.scheduler = machine::SchedulerKind::Lockstep;
    else if (args[i] == "--deadlock-json" && i + 1 < args.size())
      g_deadlock_json_path = args[++i];
    else if (args[i] == "--verbose")
      verbose = true;
    else
      usage();
  }
  const auto comp = compiler::compile(prog);

  stats::Table table({"Machine", "Cycles", "IPC", "L1 miss rate",
                      "Speedup"});
  std::uint64_t base = 0;
  for (const auto preset :
       {machine::Preset::Superscalar, machine::Preset::CPAP,
        machine::Preset::CPCMP, machine::Preset::HiDISC}) {
    const std::string name = preset == machine::Preset::Superscalar ? "ss"
                             : preset == machine::Preset::CPAP      ? "cpap"
                             : preset == machine::Preset::CPCMP ? "cpcmp"
                                                                : "hidisc";
    if (which != "all" && which != name) continue;
    const auto r = machine::run_machine(
        machine::uses_separated_binary(preset) ? comp.separated
                                               : comp.original,
        preset, cfg);
    if (base == 0) base = r.cycles;
    if (verbose)
      std::printf("--- %s ---\n%s\n", machine::preset_name(preset),
                  machine::render_report(r).c_str());
    table.add_row({machine::preset_name(preset), std::to_string(r.cycles),
                   stats::Table::num(r.ipc, 2),
                   stats::Table::num(r.l1_demand_miss_rate()),
                   stats::Table::num(static_cast<double>(base) /
                                     static_cast<double>(r.cycles))});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "asm") return cmd_asm(args);
    if (cmd == "dis") return cmd_dis(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "compile") return cmd_compile(args);
    if (cmd == "sim") return cmd_sim(args);
  } catch (const diag::DeadlockError& e) {
    // Machine deadlock: full forensic report to stderr, machine-readable
    // JSON where asked, and a distinct exit code so harnesses can tell
    // "model hang" from "bad input".
    std::fprintf(stderr, "hisa: %s\n\n%s", e.what(),
                 e.report().to_text().c_str());
    if (!g_deadlock_json_path.empty()) {
      std::ofstream out(g_deadlock_json_path, std::ios::trunc);
      if (out) {
        out << e.report().to_json() << '\n';
      } else {
        std::fprintf(stderr, "hisa: cannot write %s\n",
                     g_deadlock_json_path.c_str());
      }
    }
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hisa: %s\n", e.what());
    return 1;
  }
  usage();
}
