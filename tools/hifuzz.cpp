// hifuzz — differential fuzzer CLI for the HiDISC toolchain.
//
//   hifuzz [--runs N] [--seed S] [--threads N]
//                                         run a fuzz campaign
//   hifuzz --gen-seed S                   regenerate + test one kernel seed
//   hifuzz --repro FILE                   replay one corpus entry
//   hifuzz --replay DIR                   replay a whole corpus directory
//   hifuzz --demo-shrink                  inject a separator fault, shrink it
//
// A campaign checks kernels on --threads workers (default: all cores) and
// commits their reports in run order, so its output is byte-identical for
// every --threads value.
//
// Exit codes: 0 = clean, 1 = divergence found / replay mismatch / runtime
// error, 2 = usage.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "isa/assembler.hpp"
#include "parse_int.hpp"

namespace {

using namespace hidisc;

int usage() {
  std::cerr <<
      "usage: hifuzz [options]\n"
      "  campaign (default):\n"
      "    --runs N            kernels to generate and test (default 200)\n"
      "    --seed S            campaign seed (default 1)\n"
      "    --corpus-out DIR    write minimized reproducers here\n"
      "    --max-failures N    stop after N distinct signatures (default 8)\n"
      "    --no-shrink         keep failures at full size\n"
      "    --threads N         worker threads (default: all cores); the\n"
      "                        output is the same for every N\n"
      "  single kernel:\n"
      "    --gen-seed S        regenerate kernel seed S (printed on failure)\n"
      "    --dump              with --gen-seed: print the kernel source\n"
      "  corpus:\n"
      "    --repro FILE        replay one reproducer file\n"
      "    --replay DIR        replay every *.s in DIR\n"
      "  shrinker demo:\n"
      "    --demo-shrink       inject a DropPush separator fault and shrink\n"
      "    --inject KIND       fault for --demo-shrink / --gen-seed:\n"
      "                        drop-push | drop-pop | mis-stream\n"
      "  common:\n"
      "    --max-steps N       functional step budget (default 8000000)\n"
      "    --quiet             suppress progress output\n";
  return 2;
}

struct Args {
  std::uint64_t seed = 1;
  int runs = 200;
  std::string corpus_out;
  int max_failures = 8;
  bool shrink = true;
  int threads = 0;  // 0 = all cores
  bool have_gen_seed = false;
  std::uint64_t gen_seed = 0;
  bool dump = false;
  std::string repro_file;
  std::string replay_dir;
  bool demo_shrink = false;
  fuzz::Fault inject = fuzz::Fault::None;
  std::uint64_t max_steps = 8'000'000;
  bool quiet = false;
};

void print_report(std::ostream& os, const fuzz::OracleReport& rep,
                  const std::string& what) {
  if (rep.ok()) {
    os << what << ": ok (" << rep.static_instructions
       << " static, " << rep.dynamic_instructions
       << " dynamic instructions)\n";
  } else {
    os << what << ": FAIL stage=" << fuzz::stage_name(rep.stage)
       << " sig=" << rep.signature << "\n  " << rep.detail << "\n";
  }
}

void print_report(const fuzz::OracleReport& rep, const std::string& what) {
  print_report(std::cout, rep, what);
}

int run_single(const Args& a) {
  fuzz::KernelGen gen(a.gen_seed);
  const auto kernel = gen.generate_random();
  // With --dump, stdout carries only the kernel source (so it can be piped
  // straight into `hisa`); the oracle verdict moves to stderr.
  if (a.dump) std::cout << fuzz::to_source(kernel);
  fuzz::OracleOptions oo;
  oo.max_steps = a.max_steps;
  oo.fault = a.inject;
  const auto rep = fuzz::run_oracles(fuzz::to_source(kernel), oo);
  print_report(a.dump ? std::cerr : std::cout, rep,
               "kernel seed " + std::to_string(a.gen_seed));
  return rep.ok() ? 0 : 1;
}

int run_repro(const Args& a) {
  fuzz::OracleOptions oo;
  oo.max_steps = a.max_steps;
  const auto r = fuzz::load_repro(a.repro_file);
  const auto rep = fuzz::replay(r, oo);
  print_report(rep, r.name);
  if (rep.signature != r.expect) {
    std::cout << "expected signature '" << r.expect << "', got '"
              << rep.signature << "'\n";
    return 1;
  }
  return 0;
}

int run_replay_dir(const Args& a) {
  fuzz::OracleOptions oo;
  oo.max_steps = a.max_steps;
  const auto corpus = fuzz::load_corpus(a.replay_dir);
  int bad = 0;
  for (const auto& r : corpus) {
    const auto rep = fuzz::replay(r, oo);
    if (!a.quiet || rep.signature != r.expect) print_report(rep, r.name);
    if (rep.signature != r.expect) {
      std::cout << "  expected signature '" << r.expect << "'\n";
      ++bad;
    }
  }
  std::cout << corpus.size() - bad << "/" << corpus.size()
            << " corpus entries match their expected signature\n";
  return bad ? 1 : 0;
}

int run_demo_shrink(const Args& a) {
  // A mid-size kernel with cross-stream flows guarantees injection sites.
  fuzz::KernelGen gen(a.seed);
  fuzz::GenOptions go;
  go.body_ops = 24;
  go.iterations = 50;
  const auto kernel = gen.generate_kernel(go);

  fuzz::OracleOptions oo;
  oo.max_steps = a.max_steps;
  oo.fault = a.inject == fuzz::Fault::None ? fuzz::Fault::DropPush : a.inject;
  const auto rep = fuzz::run_oracles(fuzz::to_source(kernel), oo);
  if (rep.ok()) {
    std::cout << "injected fault produced no divergence (no site?)\n";
    return 1;
  }
  const std::size_t before =
      isa::assemble(fuzz::to_source(kernel)).code.size();
  std::cout << "injected fault fails at stage " << fuzz::stage_name(rep.stage)
            << " (sig " << rep.signature << "), " << before
            << " instructions before shrinking\n";

  const auto outcome = fuzz::shrink_kernel(kernel, oo, rep.signature);
  const auto minimized_src = fuzz::to_source(outcome.kernel);
  const std::size_t after = isa::assemble(minimized_src).code.size();
  std::cout << "minimized to " << after << " instructions in "
            << outcome.evals << " oracle runs\n";
  if (!a.quiet) std::cout << minimized_src;
  if (!a.corpus_out.empty()) {
    fuzz::Repro r;
    r.name = "demo-" + rep.signature + "-" + std::to_string(a.seed);
    r.seed = a.seed;
    r.expect = rep.signature;
    r.inject = oo.fault;  // replay re-injects the same fault
    r.note = "hifuzz --demo-shrink output (fault injected, not a real bug)";
    r.source = minimized_src;
    fuzz::write_repro(std::string(a.corpus_out) + "/" + r.name + ".s", r);
  }
  return outcome.reproduced ? 0 : 1;
}

int run_campaign_cli(const Args& a) {
  fuzz::CampaignOptions co;
  co.seed = a.seed;
  co.runs = a.runs;
  co.oracle.max_steps = a.max_steps;
  co.shrink = a.shrink;
  co.max_distinct_failures = a.max_failures;
  co.corpus_out = a.corpus_out;
  co.threads = a.threads;
  if (!a.quiet) co.log = &std::cout;
  const auto res = fuzz::run_campaign(co);
  std::cout << "hifuzz: " << res.runs_done << " runs, "
            << res.dynamic_instructions << " dynamic instructions, "
            << res.failures.size() << " distinct failures";
  if (res.duplicate_failures)
    std::cout << " (+" << res.duplicate_failures << " duplicates)";
  std::cout << "\n";
  for (const auto& f : res.failures) {
    std::cout << "  seed " << f.kernel_seed << " sig " << f.report.signature
              << " (" << f.minimized_instructions
              << " instructions minimized)";
    if (!f.repro_path.empty()) std::cout << " -> " << f.repro_path;
    std::cout << "\n  reproduce: hifuzz --gen-seed " << f.kernel_seed << "\n";
  }
  return res.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    try {
      if (arg == "--runs") {
        const char* v = next();
        if (!v) return usage();
        a.runs = cli::parse_int<int>(arg, v, 0);
      } else if (arg == "--seed") {
        const char* v = next();
        if (!v) return usage();
        a.seed = cli::parse_int<std::uint64_t>(arg, v);
      } else if (arg == "--gen-seed") {
        const char* v = next();
        if (!v) return usage();
        a.have_gen_seed = true;
        a.gen_seed = cli::parse_int<std::uint64_t>(arg, v);
      } else if (arg == "--max-steps") {
        const char* v = next();
        if (!v) return usage();
        a.max_steps = cli::parse_int<std::uint64_t>(arg, v, 1);
      } else if (arg == "--max-failures") {
        const char* v = next();
        if (!v) return usage();
        a.max_failures = cli::parse_int<int>(arg, v, 1);
      } else if (arg == "--threads") {
        const char* v = next();
        if (!v) return usage();
        a.threads = cli::parse_int<int>(arg, v, 1);
      } else if (arg == "--corpus-out") {
        const char* v = next();
        if (!v) return usage();
        a.corpus_out = v;
      } else if (arg == "--repro") {
        const char* v = next();
        if (!v) return usage();
        a.repro_file = v;
      } else if (arg == "--replay") {
        const char* v = next();
        if (!v) return usage();
        a.replay_dir = v;
      } else if (arg == "--inject") {
        const char* v = next();
        const auto f = v ? fuzz::parse_fault(v) : std::nullopt;
        if (!f) return usage();
        a.inject = *f;
      } else if (arg == "--no-shrink") {
        a.shrink = false;
      } else if (arg == "--demo-shrink") {
        a.demo_shrink = true;
      } else if (arg == "--dump") {
        a.dump = true;
      } else if (arg == "--quiet") {
        a.quiet = true;
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "hifuzz: " << e.what() << "\n";
      return usage();
    }
  }

  try {
    if (a.demo_shrink) return run_demo_shrink(a);
    if (a.have_gen_seed) return run_single(a);
    if (!a.repro_file.empty()) return run_repro(a);
    if (!a.replay_dir.empty()) return run_replay_dir(a);
    return run_campaign_cli(a);
  } catch (const std::exception& e) {
    // Runtime failures (unreadable corpus, bad repro file) exit 1; only
    // bad command lines exit 2, matching the hisa/hilab convention.
    std::cerr << "hifuzz: " << e.what() << "\n";
    return 1;
  }
}
