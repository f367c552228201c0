// Tests for the fuzzing subsystem itself: generator determinism and
// legality, oracle verdicts on clean and fault-injected kernels, the
// delta-debugging shrinker, and the campaign driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "isa/assembler.hpp"

namespace hidisc::fuzz {
namespace {

TEST(Generator, SameSeedSameKernel) {
  KernelGen a(42), b(42);
  EXPECT_EQ(to_source(a.generate_random()), to_source(b.generate_random()));
}

TEST(Generator, DifferentSeedsDiffer) {
  KernelGen a(1), b(2);
  EXPECT_NE(to_source(a.generate_random()), to_source(b.generate_random()));
}

TEST(Generator, EveryKernelAssembles) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    KernelGen gen(seed);
    const auto src = to_source(gen.generate_random());
    EXPECT_NO_THROW((void)isa::assemble(src)) << "seed " << seed;
  }
}

TEST(Generator, LegacySignatureMatchesSeedShape) {
  // The property tests drive the generator through generate(body, iters);
  // it must stay deterministic and produce a halting, assemblable kernel.
  KernelGen a(7), b(7);
  const auto sa = a.generate(16, 10);
  EXPECT_EQ(sa, b.generate(16, 10));
  const auto prog = isa::assemble(sa);
  EXPECT_GT(prog.code.size(), 10u);
}

TEST(Oracle, CleanKernelsPassAllOracles) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    KernelGen gen(seed);
    const auto rep = run_oracles(to_source(gen.generate_random()));
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ": " << rep.signature
                          << " — " << rep.detail;
    EXPECT_GT(rep.dynamic_instructions, 0u);
  }
}

// Every fault kind must be caught by some oracle stage — this is the
// self-test that the differential pipeline actually has teeth.
class FaultDetection : public ::testing::TestWithParam<Fault> {};

TEST_P(FaultDetection, InjectedFaultIsCaught) {
  // A fixed mid-size kernel guarantees queue traffic (injection sites).
  KernelGen gen(42);
  GenOptions go;
  go.body_ops = 24;
  go.iterations = 50;
  const auto src = to_source(gen.generate_kernel(go));
  OracleOptions oo;
  oo.fault = GetParam();
  const auto rep = run_oracles(src, oo);
  ASSERT_TRUE(rep.fault_applied);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.signature, "ok");
}

INSTANTIATE_TEST_SUITE_P(Kinds, FaultDetection,
                         ::testing::Values(Fault::DropPush, Fault::DropPop,
                                           Fault::MisStream));

TEST(Shrinker, MinimizesInjectedFaultBelowTwentyInstructions) {
  // The acceptance bar from the issue: an injected separator fault on a
  // ~100-instruction kernel shrinks to <= 20 instructions.
  KernelGen gen(5);
  GenOptions go;
  go.body_ops = 24;
  go.iterations = 50;
  const auto kernel = gen.generate_kernel(go);
  OracleOptions oo;
  oo.fault = Fault::DropPush;
  const auto rep = run_oracles(to_source(kernel), oo);
  ASSERT_FALSE(rep.ok());
  const auto before = isa::assemble(to_source(kernel)).code.size();
  const auto outcome = shrink_kernel(kernel, oo, rep.signature);
  ASSERT_TRUE(outcome.reproduced);
  const auto after =
      isa::assemble(to_source(outcome.kernel)).code.size();
  EXPECT_LT(after, before);
  EXPECT_LE(after, 20u);
  // The shrunk kernel still fails with the same signature.
  const auto rep2 = run_oracles(to_source(outcome.kernel), oo);
  EXPECT_EQ(rep2.signature, rep.signature);
}

TEST(Campaign, SeedDerivationIsStableAndSpread) {
  // Kernel seeds must be reproducible across runs and not collide for
  // nearby run indices (splitmix64 output).
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100; ++i) seen.insert(derive_seed(1, i));
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Campaign, ShortFixedSeedRunIsClean) {
  CampaignOptions co;
  co.seed = 1;
  co.runs = 20;
  const auto res = run_campaign(co);
  EXPECT_EQ(res.runs_done, 20);
  EXPECT_TRUE(res.ok()) << res.failures.front().report.signature;
  EXPECT_GT(res.dynamic_instructions, 0u);
}

TEST(Campaign, FaultyOracleProducesShrunkFailures) {
  // With a fault injected into every run the campaign must report it,
  // deduplicate by signature, and hand back a minimized reproducer.
  CampaignOptions co;
  co.seed = 3;
  co.runs = 6;
  co.oracle.fault = Fault::DropPush;
  co.max_distinct_failures = 2;
  const auto res = run_campaign(co);
  ASSERT_FALSE(res.ok());
  for (const auto& f : res.failures) {
    EXPECT_NE(f.report.signature, "ok");
    EXPECT_GT(f.minimized_instructions, 0u);
    EXPECT_LE(f.minimized_instructions, 30u);
    // Reproducibility: the recorded kernel seed regenerates the failure.
    KernelGen gen(f.kernel_seed);
    const auto rep =
        run_oracles(to_source(gen.generate_random(co.limits)), co.oracle);
    EXPECT_EQ(rep.signature, f.report.signature);
  }
}

// Runs `co` on `threads` workers; the log text goes to `*log`.
CampaignResult run_logged(CampaignOptions co, int threads, std::string* log) {
  std::ostringstream os;
  co.log = &os;
  co.threads = threads;
  CampaignResult res = run_campaign(co);
  *log = os.str();
  return res;
}

// Runs `co` at 1, 3 and 4 workers and demands identical results and logs.
// Returns the serial result.
CampaignResult expect_thread_count_independent(const CampaignOptions& co) {
  std::string serial_log;
  CampaignResult serial = run_logged(co, 1, &serial_log);
  for (const int threads : {3, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::string log;
    const CampaignResult res = run_logged(co, threads, &log);
    EXPECT_EQ(res.runs_done, serial.runs_done);
    EXPECT_EQ(res.dynamic_instructions, serial.dynamic_instructions);
    EXPECT_EQ(res.duplicate_failures, serial.duplicate_failures);
    EXPECT_EQ(res.failures.size(), serial.failures.size());
    for (std::size_t i = 0;
         i < std::min(res.failures.size(), serial.failures.size()); ++i) {
      const CampaignFailure& a = res.failures[i];
      const CampaignFailure& b = serial.failures[i];
      EXPECT_EQ(a.kernel_seed, b.kernel_seed);
      EXPECT_EQ(a.report.stage, b.report.stage);
      EXPECT_EQ(a.report.signature, b.report.signature);
      EXPECT_EQ(a.report.detail, b.report.detail);
      EXPECT_EQ(a.report.static_instructions, b.report.static_instructions);
      EXPECT_EQ(a.report.dynamic_instructions, b.report.dynamic_instructions);
      EXPECT_EQ(a.minimized_source, b.minimized_source);
      EXPECT_EQ(a.minimized_instructions, b.minimized_instructions);
      EXPECT_EQ(a.repro_path, b.repro_path);
    }
    EXPECT_EQ(log, serial_log);
  }
  return serial;
}

TEST(Campaign, ResultIndependentOfThreadCount) {
  // Workers run ahead but reports commit in run order, so the result and
  // the log match the serial campaign's, also where a campaign stops early.
  CampaignOptions clean;
  clean.seed = 11;
  clean.runs = 40;
  const CampaignResult c = expect_thread_count_independent(clean);
  EXPECT_EQ(c.runs_done, 40);
  EXPECT_TRUE(c.ok());

  // DropPush fails every kernel with one signature: 39 duplicates and one
  // shrink, with workers running ahead of the shrinking commit.
  CampaignOptions drop;
  drop.seed = 3;
  drop.runs = 40;
  drop.oracle.fault = Fault::DropPush;
  drop.max_distinct_failures = 2;
  drop.shrink = true;
  const CampaignResult d = expect_thread_count_independent(drop);
  EXPECT_EQ(d.failures.size(), 1u);
  EXPECT_EQ(d.runs_done, drop.runs);

  // MisStream finds a second signature at run 15, so the stop lands mid-run
  // and the reports the workers made past it are discarded.
  CampaignOptions mis = drop;
  mis.seed = 4;
  mis.oracle.fault = Fault::MisStream;
  const CampaignResult m = expect_thread_count_independent(mis);
  EXPECT_EQ(m.failures.size(), 2u);
  EXPECT_EQ(m.runs_done, 16);
}

}  // namespace
}  // namespace hidisc::fuzz
