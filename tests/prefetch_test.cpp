// Hardware-prefetcher family tests (mem/prefetcher.hpp).
//
// Three layers:
//   1. Golden reference models — brute-force reimplementations of the
//      next-line / stride / IP-stride / SMS predictors, replayed against
//      the real prefetchers on seeded random access streams (seeds via
//      fuzz::derive_seed, so any failure names its reproducing stream).
//   2. Event-skip soundness — every in-flight fill a prefetcher creates
//      must be visible to MemorySystem::next_fill_complete, and
//      debug_check_invariants must agree when the frontier is recomputed
//      from the cache lines themselves.
//   3. Machine-level bit-identity — EventSkip == Lockstep Results with
//      every scheme enabled, plus accurate/late/useless accounting.
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
       {"none", "nextline", "stride", "ipstride", "sms", "runahead",
        "ipstride:deg4", "nextline:deg1:miss", "sms:tbl512:region32",
        "stride:deg8:dist2:conf1", "runahead:deg4:dist3"}) {
    const PrefetchConfig cfg = mem::parse_prefetch_spec(s);
    EXPECT_EQ(mem::prefetch_spec(cfg), s) << "spec not canonical";
    // Re-parsing the canonical form is a fixed point.
    const PrefetchConfig again = mem::parse_prefetch_spec(mem::prefetch_spec(cfg));
    EXPECT_EQ(mem::prefetch_spec(again), s);
  }
}

TEST(PrefetchSpec, RejectsUnknownAndMalformed) {
  EXPECT_THROW((void)mem::parse_prefetch_spec("markov"), std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("nextline:bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("nextline:deg"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("nextline:deg0"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("sms:region48"),
               std::invalid_argument);  // not a power of two
  EXPECT_THROW((void)mem::parse_prefetch_spec("sms:region128"),
               std::invalid_argument);  // > 64 blocks
  EXPECT_THROW((void)mem::parse_prefetch_spec("ipstride:tbl100"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec("stride:conf9"),
               std::invalid_argument);
  EXPECT_THROW((void)mem::parse_prefetch_spec(""), std::invalid_argument);
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

// One training step of the classic stride predictor, written longhand.
void golden_stride_step(GoldenStrideState& st, std::uint64_t block,
                        const PrefetchConfig& cfg, std::uint64_t bs,
                        std::vector<std::uint64_t>& out) {
  if (!st.seen) {
    st = GoldenStrideState{block, 0, 0, true};
    return;
  }
  const std::int64_t delta = static_cast<std::int64_t>(block) -
                             static_cast<std::int64_t>(st.last_block);
  st.last_block = block;
  if (delta == 0) return;
  if (delta == st.stride) st.confidence = std::min(st.confidence + 1, 8);
  else {
    st.stride = delta;
    st.confidence = 1;
  }
  if (st.confidence < cfg.min_confidence) return;
  for (int i = 0; i < cfg.degree; ++i) {
    const std::int64_t target =
        static_cast<std::int64_t>(block) +
        st.stride * static_cast<std::int64_t>(cfg.distance + i);
    if (target < 0) break;
    out.push_back(static_cast<std::uint64_t>(target) * bs);
  }
}

class GoldenModel {
 public:
  virtual ~GoldenModel() = default;
  virtual void observe(const PrefetchAccess& ev,
                       std::vector<std::uint64_t>& out) = 0;
};

class GoldenNextLine final : public GoldenModel {
 public:
  GoldenNextLine(const PrefetchConfig& cfg, std::uint64_t bs)
      : cfg_(cfg), bs_(bs) {}
  void observe(const PrefetchAccess& ev,
               std::vector<std::uint64_t>& out) override {
    if (ev.l1_hit && !cfg_.train_on_hit) return;
    for (int i = 0; i < cfg_.degree; ++i)
      out.push_back((ev.block + static_cast<std::uint64_t>(cfg_.distance) +
                     static_cast<std::uint64_t>(i)) *
                    bs_);
  }

 private:
  PrefetchConfig cfg_;
  std::uint64_t bs_;
};

class GoldenStride final : public GoldenModel {
 public:
  GoldenStride(const PrefetchConfig& cfg, std::uint64_t bs)
      : cfg_(cfg), bs_(bs) {}
  void observe(const PrefetchAccess& ev,
               std::vector<std::uint64_t>& out) override {
    if (ev.l1_hit && !cfg_.train_on_hit) return;
    golden_stride_step(st_, ev.block, cfg_, bs_, out);
  }

 private:
  PrefetchConfig cfg_;
  std::uint64_t bs_;
  GoldenStrideState st_;
};

// Direct-mapped per-PC table, modelled as a map from slot index: a
// colliding PC evicts the incumbent and restarts training.
class GoldenIpStride final : public GoldenModel {
 public:
  GoldenIpStride(const PrefetchConfig& cfg, std::uint64_t bs)
      : cfg_(cfg), bs_(bs) {}
  void observe(const PrefetchAccess& ev,
               std::vector<std::uint64_t>& out) override {
    if (ev.pc < 0) return;
    if (ev.l1_hit && !cfg_.train_on_hit) return;
    const auto pc = static_cast<std::uint64_t>(ev.pc);
    const std::uint64_t slot =
        mix64(pc) & (static_cast<std::uint64_t>(cfg_.table_entries) - 1);
    auto& [owner, st] = slots_[slot];
    if (st.seen && owner != pc) st = GoldenStrideState{};
    owner = pc;
    golden_stride_step(st, ev.block, cfg_, bs_, out);
  }

 private:
  PrefetchConfig cfg_;
  std::uint64_t bs_;
  std::map<std::uint64_t, std::pair<std::uint64_t, GoldenStrideState>> slots_;
};

// SMS: accumulate per-region footprints in a 64-slot direct-mapped table;
// commit to the PHT on slot recycle; replay the learned footprint (lowest
// offsets first, trigger block excluded, at most `degree`) on the first
// touch of a new generation.
class GoldenSms final : public GoldenModel {
 public:
  GoldenSms(const PrefetchConfig& cfg, std::uint64_t bs)
      : cfg_(cfg), bs_(bs) {}
  void observe(const PrefetchAccess& ev,
               std::vector<std::uint64_t>& out) override {
    if (ev.l1_hit && !cfg_.train_on_hit) return;
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
      const std::uint64_t pslot =
          mix64(it->second.trigger) &
          (static_cast<std::uint64_t>(cfg_.table_entries) - 1);
      pht_[pslot] = {it->second.trigger, it->second.pattern};
    }
    const std::uint64_t trigger =
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(ev.pc < 0 ? 0 : ev.pc))
         << 6) ^
        static_cast<std::uint64_t>(offset);
    acc_[slot] = {region, std::uint64_t{1} << offset, trigger};
    const std::uint64_t pslot =
        mix64(trigger) & (static_cast<std::uint64_t>(cfg_.table_entries) - 1);
    const auto pit = pht_.find(pslot);
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

// A seeded access stream with enough structure to exercise every scheme:
// a handful of PC-attributed strided walkers plus uniform noise.
std::vector<PrefetchAccess> random_stream(std::uint64_t seed, int length,
                                          std::uint64_t block_bytes) {
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
  std::uint64_t now = 0;
  for (int i = 0; i < length; ++i) {
    now += rng() % 9 + 1;
    PrefetchAccess ev;
    ev.now = now;
    ev.l1_hit = (rng() & 3) != 0;  // 75% hits, like a real stream
    ev.write = (rng() & 7) == 0;
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
    ev.addr = ev.block * block_bytes + rng() % block_bytes;
    stream.push_back(ev);
  }
  return stream;
}

void replay_against_golden(const PrefetchConfig& cfg, GoldenModel& golden) {
  constexpr std::uint64_t kBlockBytes = 32;
  const auto pf = mem::make_prefetcher(cfg, kBlockBytes);
  ASSERT_NE(pf, nullptr);
  for (std::uint64_t run = 0; run < 8; ++run) {
    const std::uint64_t seed = fuzz::derive_seed(0x9f37, run);
    const auto stream = random_stream(seed, 2000, kBlockBytes);
    std::vector<std::uint64_t> got, want;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      got.clear();
      want.clear();
      pf->observe(stream[i], got);
      golden.observe(stream[i], want);
      ASSERT_EQ(got, want)
          << mem::prefetch_spec(cfg) << ": divergence at event " << i
          << " (seed " << seed << ", block " << stream[i].block << ", pc "
          << stream[i].pc << ")";
    }
    pf->reset();
  }
}

TEST(PrefetchGolden, NextLineMatchesBruteForce) {
  for (const char* s : {"nextline", "nextline:deg4:dist2", "nextline:miss"}) {
    const auto cfg = mem::parse_prefetch_spec(s);
    GoldenNextLine golden(cfg, 32);
    // reset() between runs is a no-op for a stateless scheme, so one
    // golden instance serves all replays.
    replay_against_golden(cfg, golden);
  }
}

TEST(PrefetchGolden, StrideMatchesBruteForce) {
  for (const char* s : {"stride", "stride:deg4:conf1", "stride:dist3:miss"}) {
    const auto cfg = mem::parse_prefetch_spec(s);
    const auto pf = mem::make_prefetcher(cfg, 32);
    for (std::uint64_t run = 0; run < 8; ++run) {
      GoldenStride golden(cfg, 32);  // fresh golden per replay
      const std::uint64_t seed = fuzz::derive_seed(0x57a1de, run);
      const auto stream = random_stream(seed, 2000, 32);
      std::vector<std::uint64_t> got, want;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        got.clear();
        want.clear();
        pf->observe(stream[i], got);
        golden.observe(stream[i], want);
        ASSERT_EQ(got, want) << s << ": event " << i << " seed " << seed;
      }
      pf->reset();
    }
  }
}

TEST(PrefetchGolden, IpStrideMatchesBruteForce) {
  for (const char* s : {"ipstride", "ipstride:deg4", "ipstride:tbl16:conf1"}) {
    const auto cfg = mem::parse_prefetch_spec(s);
    const auto pf = mem::make_prefetcher(cfg, 32);
    for (std::uint64_t run = 0; run < 8; ++run) {
      GoldenIpStride golden(cfg, 32);
      const std::uint64_t seed = fuzz::derive_seed(0x1b57a1de, run);
      const auto stream = random_stream(seed, 2000, 32);
      std::vector<std::uint64_t> got, want;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        got.clear();
        want.clear();
        pf->observe(stream[i], got);
        golden.observe(stream[i], want);
        ASSERT_EQ(got, want) << s << ": event " << i << " seed " << seed;
      }
      pf->reset();
    }
  }
}

TEST(PrefetchGolden, SmsMatchesBruteForce) {
  for (const char* s : {"sms", "sms:region4:deg8", "sms:tbl16"}) {
    const auto cfg = mem::parse_prefetch_spec(s);
    const auto pf = mem::make_prefetcher(cfg, 32);
    for (std::uint64_t run = 0; run < 8; ++run) {
      GoldenSms golden(cfg, 32);
      const std::uint64_t seed = fuzz::derive_seed(0x5a5a, run);
      const auto stream = random_stream(seed, 2000, 32);
      std::vector<std::uint64_t> got, want;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        got.clear();
        want.clear();
        pf->observe(stream[i], got);
        golden.observe(stream[i], want);
        ASSERT_EQ(got, want) << s << ": event " << i << " seed " << seed;
      }
      pf->reset();
    }
  }
}

TEST(PrefetchRunahead, ReplaysRecordedMissChain) {
  const auto cfg = mem::parse_prefetch_spec("runahead:deg2:dist2");
  const auto pf = mem::make_prefetcher(cfg, 32);
  std::vector<std::uint64_t> out;
  const auto miss = [&](std::uint64_t block) {
    PrefetchAccess ev;
    ev.block = block;
    ev.addr = block * 32;
    ev.l1_hit = false;
    out.clear();
    pf->observe(ev, out);
    return out;
  };
  // Teach the chain A -> B -> C (cold walk: nothing to predict yet).
  EXPECT_TRUE(miss(100).empty());
  EXPECT_TRUE(miss(200).empty());
  EXPECT_TRUE(miss(300).empty());
  // Re-missing A replays the chain: B from A's entry, then C from B's.
  const auto replay = miss(100);
  EXPECT_EQ(replay, (std::vector<std::uint64_t>{200 * 32, 300 * 32}));
  // Hits never train or trigger the miss-driven scheme.
  PrefetchAccess hit;
  hit.block = 200;
  hit.l1_hit = true;
  out.clear();
  pf->observe(hit, out);
  EXPECT_TRUE(out.empty());
}

// ---- event-skip soundness --------------------------------------------------

TEST(PrefetchEventSkip, FillFrontierCoversEveryInFlightFill) {
  for (const char* s :
       {"nextline", "stride:conf1", "ipstride", "sms:region4", "runahead"}) {
    mem::MemConfig mc;
    mc.prefetch = mem::parse_prefetch_spec(s);
    mem::MemorySystem ms(mc);
    ms.set_event_tracking(true);
    std::mt19937_64 rng(fuzz::derive_seed(0xf111, 0));
    std::uint64_t now = 0;
    for (int i = 0; i < 4000; ++i) {
      now += rng() % 40;
      const std::uint64_t addr = (rng() % 4096) * 32 + (rng() % 2) * 8;
      ms.access(addr, (rng() & 7) == 0 ? mem::AccessType::Write
                                       : mem::AccessType::Read,
                now, static_cast<std::int32_t>(rng() % 64));
      // The maintained frontier must never sit later than the earliest
      // in-flight line — otherwise the scheduler would skip that fill.
      std::vector<std::uint64_t> outstanding;
      ms.l1().debug_outstanding_readys(now, outstanding);
      ms.l1i().debug_outstanding_readys(now, outstanding);
      ms.l2().debug_outstanding_readys(now, outstanding);
      const std::uint64_t frontier = ms.next_fill_complete(now);
      if (!outstanding.empty()) {
        ASSERT_NE(frontier, mem::MemorySystem::kNoFill) << s << " @" << now;
        ASSERT_LE(frontier,
                  *std::min_element(outstanding.begin(), outstanding.end()))
            << s << " @" << now;
      }
      // And the brute-force recomputation must agree.
      ASSERT_NO_THROW(ms.debug_check_invariants(now)) << s << " @" << now;
    }
  }
}

TEST(PrefetchStats, TimelyAndLateAccounting) {
  mem::MemConfig mc;
  mc.prefetch = mem::parse_prefetch_spec("nextline:deg1");
  mem::MemorySystem ms(mc);
  // Miss on block 0 trains the prefetcher, which fills block 1.
  ms.access(0, mem::AccessType::Read, 0);
  auto s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.trains, 1u);
  EXPECT_EQ(s.issued, 1u);
  EXPECT_EQ(s.installed, 1u);
  // Demand touch long after the fill landed: timely.
  ms.access(32, mem::AccessType::Read, 1000);
  s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.used, 1u);
  EXPECT_EQ(s.late, 0u);
  EXPECT_EQ(s.timely(), 1u);
  // That hit trained again, prefetching block 2 at cycle 1000; touching
  // it immediately finds the fill still in flight: late.
  ms.access(64, mem::AccessType::Read, 1001);
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
  mem::MemConfig mc;
  mc.prefetch = mem::parse_prefetch_spec("nextline:deg1");
  mem::MemorySystem ms(mc);
  ms.access(0, mem::AccessType::Read, 0);    // prefetches block 1
  ms.access(32, mem::AccessType::Read, 500);  // hit; candidate block 2
  ms.access(32, mem::AccessType::Read, 600);  // hit; block 2 now resident
  const auto s = ms.hw_prefetch_stats();
  EXPECT_EQ(s.trains, 3u);
  EXPECT_EQ(s.issued, 2u);
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
       {"nextline", "stride", "ipstride:deg4", "sms", "runahead"}) {
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
