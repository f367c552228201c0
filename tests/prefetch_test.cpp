// Hardware-prefetcher family tests (mem/prefetcher.hpp).
//
// Three layers:
//   1. Golden reference models — brute-force reimplementations of the
//      IP-stride and SMS predictors, replayed against the real
//      prefetchers on seeded random access streams (seeds via
//      fuzz::derive_seed, so any failure names its reproducing stream).
//   2. Accurate/late/useless accounting on a bare MemorySystem: a fill's
//      `ready` stamp decides whether a later demand touch was timely.
//   3. Machine-level bit-identity — EventSkip == Lockstep Results with
//      each scheme enabled.  A prefetch fill landing is never a scheduler
//      event (mem/memory_system.hpp), so this equivalence, the scheduler
//      tests' prefetch-and-bus config and the lockstep fuzz campaign are
//      what check that the event-skip scheduler never misses one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "fuzz/campaign.hpp"
#include "machine/machine.hpp"
#include "mem/memory_system.hpp"
#include "mem/prefetcher.hpp"
#include "workloads/common.hpp"

namespace hidisc {
namespace {

using mem::PrefetchAccess;
using mem::PrefetchConfig;
using mem::PrefetchKind;

// ---- spec grammar ----------------------------------------------------------

TEST(PrefetchSpec, RoundTripsCanonically) {
  for (const char* s :
       {"none", "ipstride", "sms", "ipstride:deg4", "ipstride:dist4",
        "ipstride:deg8:dist2", "sms:region4", "sms:deg8:region32"}) {
    const PrefetchConfig cfg = mem::parse_prefetch_spec(s);
    EXPECT_EQ(mem::prefetch_spec(cfg), s) << "spec not canonical";
    // Re-parsing the canonical form is a fixed point.
    const PrefetchConfig again = mem::parse_prefetch_spec(mem::prefetch_spec(cfg));
    EXPECT_EQ(mem::prefetch_spec(again), s);
  }
}

TEST(PrefetchSpec, RejectsUnknownAndMalformed) {
  EXPECT_THROW((void)mem::parse_prefetch_spec("markov"), std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("ipstride:bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("ipstride:deg"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("ipstride:deg0"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("sms:region48"),
               std::invalid_argument);  // not a power of two
  EXPECT_THROW((void)mem::parse_prefetch_spec("sms:region128"),
               std::invalid_argument);  // > 64 blocks
  EXPECT_THROW((void)mem::parse_prefetch_spec(""), std::invalid_argument);
  // Schemes and knobs that are not part of the grammar: the table size,
  // confidence threshold and training filter are fixed.
  for (const char* s : {"nextline", "stride", "runahead", "ipstride:tbl16",
                        "ipstride:conf1", "ipstride:miss"})
    EXPECT_THROW((void)mem::parse_prefetch_spec(s), std::invalid_argument)
        << s;
}

TEST(PrefetchSpec, KindTakesOnlyTheKnobsItReads) {
  // ipstride reads degree and distance, sms degree and region.  A knob the
  // kind does not read changes no simulation, so it neither prints nor
  // parses: one simulation has one spec.
  PrefetchConfig sms;
  sms.kind = PrefetchKind::Sms;
  sms.distance = 3;
  EXPECT_EQ(mem::prefetch_spec(sms), "sms");
  PrefetchConfig ip;
  ip.kind = PrefetchKind::IpStride;
  ip.sms_region_blocks = 4;
  EXPECT_EQ(mem::prefetch_spec(ip), "ipstride");
  for (const char* s : {"sms:dist3", "ipstride:region4", "sms:deg4:dist2",
                        "none:deg2", "off:region4"})
    EXPECT_THROW((void)mem::parse_prefetch_spec(s), std::invalid_argument)
        << s;
}

TEST(PrefetchSpec, NoneBuildsNoPrefetcher) {
  EXPECT_EQ(mem::make_prefetcher(PrefetchConfig{}, 32), nullptr);
  EXPECT_EQ(mem::parse_prefetch_spec("off").kind, PrefetchKind::None);
}

// ---- golden reference models ----------------------------------------------
//
// Each model is an independent brute-force restatement of the scheme's
// published behaviour.  They share only the splitmix64 finalizer with the
// implementation (the table-index hash is part of the scheme's definition;
// everything else is re-derived).

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct GoldenStrideState {
  std::uint64_t last_block = 0;
  std::int64_t stride = 0;
  int confidence = 0;
  bool seen = false;
};

// Direct-mapped 256-entry per-PC table, modelled as a map from slot
// index: a colliding PC evicts the incumbent and restarts training.  Each
// slot runs the classic stride predictor, written longhand: two equal
// consecutive deltas (confidence 2) arm it.
class GoldenIpStride {
 public:
  GoldenIpStride(const PrefetchConfig& cfg, std::uint64_t bs)
      : cfg_(cfg), bs_(bs) {}
  void observe(const PrefetchAccess& ev, std::vector<std::uint64_t>& out) {
    if (ev.pc < 0) return;
    const auto pc = static_cast<std::uint64_t>(ev.pc);
    auto& [owner, st] = slots_[mix64(pc) & 255];
    if (st.seen && owner != pc) st = GoldenStrideState{};
    owner = pc;
    if (!st.seen) {
      st = GoldenStrideState{ev.block, 0, 0, true};
      return;
    }
    const std::int64_t delta = static_cast<std::int64_t>(ev.block) -
                               static_cast<std::int64_t>(st.last_block);
    st.last_block = ev.block;
    if (delta == 0) return;
    if (delta == st.stride) st.confidence = std::min(st.confidence + 1, 8);
    else {
      st.stride = delta;
      st.confidence = 1;
    }
    if (st.confidence < 2) return;
    for (int i = 0; i < cfg_.degree; ++i) {
      const std::int64_t target =
          static_cast<std::int64_t>(ev.block) +
          st.stride * static_cast<std::int64_t>(cfg_.distance + i);
      if (target < 0) break;
      out.push_back(static_cast<std::uint64_t>(target) * bs_);
    }
  }

 private:
  PrefetchConfig cfg_;
  std::uint64_t bs_;
  std::map<std::uint64_t, std::pair<std::uint64_t, GoldenStrideState>> slots_;
};

// SMS: accumulate per-region footprints in a 64-slot direct-mapped table;
// commit to the 256-entry PHT on slot recycle; replay the learned
// footprint (lowest offsets first, trigger block excluded, at most
// `degree`) on the first touch of a new generation.
class GoldenSms {
 public:
  GoldenSms(const PrefetchConfig& cfg, std::uint64_t bs)
      : cfg_(cfg), bs_(bs) {}
  void observe(const PrefetchAccess& ev, std::vector<std::uint64_t>& out) {
    const auto region_blocks =
        static_cast<std::uint64_t>(cfg_.sms_region_blocks);
    const std::uint64_t region = ev.block / region_blocks;
    const int offset = static_cast<int>(ev.block % region_blocks);
    const std::uint64_t slot = mix64(region) & 63;
    auto it = acc_.find(slot);
    if (it != acc_.end() && it->second.region == region) {
      it->second.pattern |= std::uint64_t{1} << offset;
      return;
    }
    if (it != acc_.end()) {
      pht_[mix64(it->second.trigger) & 255] = {it->second.trigger,
                                               it->second.pattern};
    }
    const std::uint64_t trigger =
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(ev.pc < 0 ? 0 : ev.pc))
         << 6) ^
        static_cast<std::uint64_t>(offset);
    acc_[slot] = {region, std::uint64_t{1} << offset, trigger};
    const auto pit = pht_.find(mix64(trigger) & 255);
    if (pit == pht_.end() || pit->second.first != trigger) return;
    int emitted = 0;
    for (int b = 0;
         b < static_cast<int>(region_blocks) && emitted < cfg_.degree; ++b) {
      if (b == offset || (pit->second.second & (std::uint64_t{1} << b)) == 0)
        continue;
      out.push_back((region * region_blocks + static_cast<std::uint64_t>(b)) *
                    bs_);
      ++emitted;
    }
  }

 private:
  struct Acc {
    std::uint64_t region = 0;
    std::uint64_t pattern = 0;
    std::uint64_t trigger = 0;
  };
  PrefetchConfig cfg_;
  std::uint64_t bs_;
  std::map<std::uint64_t, Acc> acc_;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> pht_;
};

// A seeded access stream with enough structure to exercise both schemes:
// a handful of PC-attributed strided walkers plus uniform noise.
std::vector<PrefetchAccess> random_stream(std::uint64_t seed, int length) {
  std::mt19937_64 rng(seed);
  struct Walker {
    std::uint64_t block;
    std::int64_t stride;
    std::int32_t pc;
  };
  std::vector<Walker> walkers;
  for (int i = 0; i < 4; ++i)
    walkers.push_back({rng() % 10000 + 1000,
                       static_cast<std::int64_t>(rng() % 7) - 3,
                       static_cast<std::int32_t>(rng() % 48)});
  std::vector<PrefetchAccess> stream;
  for (int i = 0; i < length; ++i) {
    PrefetchAccess ev;
    if ((rng() & 7) < 6) {
      auto& w = walkers[rng() % walkers.size()];
      const std::int64_t next =
          static_cast<std::int64_t>(w.block) + w.stride;
      w.block = next < 0 ? 1000 : static_cast<std::uint64_t>(next);
      ev.block = w.block;
      ev.pc = w.pc;
      if ((rng() & 31) == 0) w.stride = static_cast<std::int64_t>(rng() % 7) - 3;
    } else {
      ev.block = rng() % 65536;
      ev.pc = (rng() & 1) ? static_cast<std::int32_t>(rng() % 48) : -1;
    }
    stream.push_back(ev);
  }
  return stream;
}

// Replays eight seeded streams, each through a fresh prefetcher and a
// fresh golden model, asserting candidate-for-candidate equality.
template <class Golden>
void replay_against_golden(const char* spec, std::uint64_t seed_base) {
  const auto cfg = mem::parse_prefetch_spec(spec);
  for (std::uint64_t run = 0; run < 8; ++run) {
    const auto pf = mem::make_prefetcher(cfg, 32);
    ASSERT_NE(pf, nullptr);
    Golden golden(cfg, 32);
    const std::uint64_t seed = fuzz::derive_seed(seed_base, run);
    const auto stream = random_stream(seed, 2000);
    std::vector<std::uint64_t> got, want;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      got.clear();
      want.clear();
      pf->observe(stream[i], got);
      golden.observe(stream[i], want);
      ASSERT_EQ(got, want) << spec << ": event " << i << " seed " << seed
                           << ", block " << stream[i].block << ", pc "
                           << stream[i].pc;
    }
  }
}

TEST(PrefetchGolden, IpStrideMatchesBruteForce) {
  for (const char* s : {"ipstride", "ipstride:deg4", "ipstride:deg2:dist4"})
    replay_against_golden<GoldenIpStride>(s, 0x1b57a1de);
}

TEST(PrefetchGolden, SmsMatchesBruteForce) {
  for (const char* s : {"sms", "sms:region4:deg8", "sms:region4"})
    replay_against_golden<GoldenSms>(s, 0x5a5a);
}

// ---- accurate / late / useless accounting --------------------------------

// ipstride:deg1 on a bare memory system.  The tests drive one static load
// (PC 7) through 32-byte blocks with a unit stride: its first two
// accesses arm its table entry, and from the third on each access
// prefetches the next block.
mem::MemorySystem ipstride_deg1() {
  mem::MemConfig mc;
  mc.prefetch = mem::parse_prefetch_spec("ipstride:deg1");
  return mem::MemorySystem(mc);
}

TEST(PrefetchStats, TimelyAndLateAccounting) {
  auto ms = ipstride_deg1();
  ms.access(0, mem::AccessType::Read, 0, 7);
  ms.access(32, mem::AccessType::Read, 100, 7);
  auto s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.trains, 2u);
  EXPECT_EQ(s.issued, 0u);  // one delta seen: not yet confident
  ms.access(64, mem::AccessType::Read, 200, 7);  // prefetches block 3
  s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.trains, 3u);
  EXPECT_EQ(s.issued, 1u);
  EXPECT_EQ(s.installed, 1u);
  // Demand touch long after the fill landed: timely.
  ms.access(96, mem::AccessType::Read, 1000, 7);
  s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.used, 1u);
  EXPECT_EQ(s.late, 0u);
  EXPECT_EQ(s.timely(), 1u);
  // That hit trained again, prefetching block 4 at cycle 1000; touching
  // it immediately finds the fill still in flight: late.
  ms.access(128, mem::AccessType::Read, 1001, 7);
  s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.used, 2u);
  EXPECT_EQ(s.late, 1u);
  EXPECT_EQ(s.timely(), 1u);
  EXPECT_DOUBLE_EQ(s.lateness(), 0.5);
  // Every issued prefetch missed L1 by construction (the resident filter
  // ran first), so it allocated a line.
  EXPECT_EQ(s.issued, s.installed);
}

TEST(PrefetchStats, ResidentCandidatesAreFiltered) {
  auto ms = ipstride_deg1();
  ms.access(0, mem::AccessType::Read, 0, 7);
  ms.access(32, mem::AccessType::Read, 100, 7);
  // An unattributed demand access (no PC) counts as a train, which
  // ipstride ignores, and makes block 3 resident ...
  ms.access(96, mem::AccessType::Read, 150);
  // ... so PC 7's first candidate, block 3, is filtered,
  ms.access(64, mem::AccessType::Read, 200, 7);
  // and its next one, block 4, is issued.
  ms.access(96, mem::AccessType::Read, 300, 7);
  const auto s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.trains, 5u);
  EXPECT_EQ(s.issued, 1u);
  EXPECT_EQ(s.filtered, 1u);
}

// ---- machine-level bit-identity -------------------------------------------


machine::Result run_with(const compiler::Compilation& p, machine::Preset preset,
                         machine::SchedulerKind k, machine::MachineConfig cfg) {
  cfg.scheduler = k;
  machine::Machine m(
      machine::uses_separated_binary(preset) ? p.separated : p.original,
      preset, cfg);
  return m.run();
}

TEST(PrefetchScheduler, EventSkipMatchesLockstepWithEveryScheme) {
  const auto w = workloads::make_neighborhood(workloads::Scale::Test);
  const auto p = compiler::compile(w.program);
  for (const char* s :
       {"ipstride:deg4", "ipstride:deg2:dist4", "sms", "sms:region4"}) {
    for (const auto preset :
         {machine::Preset::Superscalar, machine::Preset::CPAP}) {
      machine::MachineConfig cfg;
      cfg.mem.prefetch = mem::parse_prefetch_spec(s);
      const auto skip =
          run_with(p, preset, machine::SchedulerKind::EventSkip, cfg);
      const auto lock =
          run_with(p, preset, machine::SchedulerKind::Lockstep, cfg);
      EXPECT_TRUE(skip == lock)
          << s << "/" << machine::preset_name(preset) << ": event-skip {"
          << skip.cycles << " cy} vs lockstep {" << lock.cycles << " cy}";
      EXPECT_GT(skip.pf.trains, 0u) << s;
    }
  }
}

TEST(PrefetchScheduler, PrefetchingChangesTimingButNotArchitecture) {
  const auto w = workloads::make_neighborhood(workloads::Scale::Test);
  const auto p = compiler::compile(w.program);
  machine::MachineConfig base;
  const auto plain = run_with(p, machine::Preset::Superscalar,
                              machine::SchedulerKind::EventSkip, base);
  machine::MachineConfig pf_cfg;
  pf_cfg.mem.prefetch = mem::parse_prefetch_spec("ipstride:deg2:dist4");
  const auto pf = run_with(p, machine::Preset::Superscalar,
                           machine::SchedulerKind::EventSkip, pf_cfg);
  // Same committed work, different timing; a working prefetcher on the
  // regular Neighborhood kernel must remove demand misses.
  EXPECT_EQ(pf.instructions, plain.instructions);
  EXPECT_GT(pf.pf.issued, 0u);
  EXPECT_LT(pf.l1.demand_misses(), plain.l1.demand_misses());
  EXPECT_LT(pf.cycles, plain.cycles);
  EXPECT_GT(pf.pf_coverage, 0.0);
  EXPECT_EQ(plain.pf.trains, 0u);  // no prefetcher, no accounting
}

}  // namespace
}  // namespace hidisc
