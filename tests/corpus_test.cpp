// Replays the checked-in regression corpus (tests/corpus/) through the
// full differential-oracle stack: every entry must reproduce exactly the
// signature recorded in its `# expect:` header ("ok" for fixed bugs).
// Also covers the corpus file format itself (write -> load round trip).
#include <gtest/gtest.h>

#include <filesystem>

#include "compiler/compile.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracle.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

#ifndef HIDISC_CORPUS_DIR
#error "HIDISC_CORPUS_DIR must point at tests/corpus"
#endif

namespace hidisc::fuzz {
namespace {

TEST(Corpus, DirectoryIsNonEmpty) {
  const auto corpus = load_corpus(HIDISC_CORPUS_DIR);
  EXPECT_GE(corpus.size(), 8u);
}

TEST(Corpus, EveryEntryReproducesItsExpectedSignature) {
  for (const auto& r : load_corpus(HIDISC_CORPUS_DIR)) {
    const auto rep = replay(r);
    EXPECT_EQ(rep.signature, r.expect)
        << r.name << " (" << r.path << "): " << rep.detail;
  }
}

TEST(Corpus, DecoupledEntriesCarryStreamsTags) {
  // At least one entry must exercise the hand-decoupled EOD protocol.
  bool decoupled = false;
  for (const auto& r : load_corpus(HIDISC_CORPUS_DIR))
    decoupled |= !r.streams.empty();
  EXPECT_TRUE(decoupled);
}

// Generated kernels stay below the CMAS thresholds, so the oracle's CMP
// legs would otherwise only ever check an idle CMP.
TEST(Corpus, CmasForkEntryForksUnderBothSchedulers) {
  const auto r = load_repro(std::filesystem::path(HIDISC_CORPUS_DIR) /
                            "cmas-fork.s");
  const auto comp = compiler::compile(isa::assemble(r.source));
  ASSERT_FALSE(comp.groups.empty());
  for (const auto scheduler : {machine::SchedulerKind::EventSkip,
                               machine::SchedulerKind::Lockstep}) {
    machine::MachineConfig cfg;
    cfg.scheduler = scheduler;
    for (const auto preset :
         {machine::Preset::CPCMP, machine::Preset::HiDISC}) {
      const auto& binary = machine::uses_separated_binary(preset)
                               ? comp.separated
                               : comp.original;
      EXPECT_GT(machine::Machine(binary, preset, cfg).run().cmas_forks, 0u)
          << machine::preset_name(preset) << " scheduler "
          << static_cast<int>(scheduler);
    }
  }
}

TEST(Corpus, WriteLoadRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hidisc-corpus-test";
  std::filesystem::remove_all(dir);
  Repro r;
  r.name = "round-trip";
  r.seed = 12345;
  r.expect = "digest-separated";
  r.streams = "AAC";
  r.note = "format check";
  r.source = "  li r1, 1\n  li r2, 2\n  halt\n";
  const auto file = dir / "round-trip.s";
  write_repro(file, r);
  const auto back = load_repro(file);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.expect, r.expect);
  EXPECT_EQ(back.streams, r.streams);
  EXPECT_EQ(back.note, r.note);
  EXPECT_EQ(back.source, r.source);
  std::filesystem::remove_all(dir);
}

TEST(Corpus, MissingDirectoryThrows) {
  EXPECT_THROW((void)load_corpus("/nonexistent/corpus/dir"),
               std::runtime_error);
}

}  // namespace
}  // namespace hidisc::fuzz
