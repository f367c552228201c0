// Cache and memory-hierarchy tests: geometry checks, LRU replacement,
// write-back behaviour, prefetch semantics, in-flight fills, and the
// Table-1 latency structure.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/cache.hpp"
#include "mem/memory_system.hpp"

namespace hidisc::mem {
namespace {

CacheConfig tiny_cache() {
  return CacheConfig{/*sets=*/2, /*block_bytes=*/16, /*assoc=*/2};
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{0, 16, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{3, 16, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{2, 24, 2}), std::invalid_argument);
}

TEST(Cache, SizeBytes) {
  EXPECT_EQ(CacheConfig(256, 32, 4).size_bytes(), 32 * 1024);
  EXPECT_EQ(CacheConfig(1024, 64, 4).size_bytes(), 256 * 1024);
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.access(0x100, AccessType::Read, 1, 10).hit);
  // After the fill completes (>= cycle 10) the block hits cleanly.
  EXPECT_TRUE(c.access(0x100, AccessType::Read, 20, 0).hit);
  EXPECT_TRUE(c.access(0x10f, AccessType::Read, 21, 0).hit);  // same block
  EXPECT_FALSE(c.access(0x110, AccessType::Read, 22, 0).hit); // next block
  EXPECT_EQ(c.stats().reads, 4u);
  EXPECT_EQ(c.stats().read_misses, 2u);
}

TEST(Cache, DelayedHitCountsAsMissInStats) {
  Cache c(tiny_cache());
  c.access(0x100, AccessType::Read, 1, /*fill_ready=*/100);
  // Demand access while the fill is in flight: architecturally a hit
  // (MSHR merge), statistically a miss — only timely prefetches remove
  // misses (paper Figure 9).
  const auto r = c.access(0x100, AccessType::Read, 50, 0);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.stats().read_misses, 2u);
  EXPECT_EQ(c.stats().late_fill_hits, 1u);
}

TEST(Cache, LruEvictsOldest) {
  Cache c(tiny_cache());  // 2 sets x 2 ways; set = block index & 1
  // Three blocks mapping to set 0: block indices 0, 2, 4 -> addrs 0, 32, 64.
  c.access(0, AccessType::Read, 1, 0);
  c.access(32, AccessType::Read, 2, 0);
  c.access(0, AccessType::Read, 3, 0);   // touch 0: 32 becomes LRU
  c.access(64, AccessType::Read, 4, 0);  // evicts 32
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(32));
  EXPECT_TRUE(c.contains(64));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, WriteMakesDirtyAndEvictionReportsWriteback) {
  Cache c(tiny_cache());
  c.access(0, AccessType::Write, 1, 0);
  c.access(32, AccessType::Read, 2, 0);
  const auto r = c.access(64, AccessType::Read, 3, 0);  // evicts dirty 0
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.evicted_addr, 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, PrefetchMarksLineAndDemandHitCountsUseful) {
  Cache c(tiny_cache());
  c.access(0x40, AccessType::Prefetch, 1, 5);
  EXPECT_EQ(c.stats().prefetch_misses, 1u);
  c.access(0x40, AccessType::Read, 10, 0);
  EXPECT_EQ(c.stats().useful_prefetches, 1u);
  // Second demand hit is no longer "useful" (already counted).
  c.access(0x40, AccessType::Read, 11, 0);
  EXPECT_EQ(c.stats().useful_prefetches, 1u);
}

TEST(Cache, LateFillHitReportsReadyTime) {
  Cache c(tiny_cache());
  c.access(0x80, AccessType::Prefetch, 1, /*fill_ready=*/100);
  const auto r = c.access(0x80, AccessType::Read, 50, 0);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.ready, 100u);
  EXPECT_EQ(c.stats().late_fill_hits, 1u);
}

TEST(Cache, ContainsHasNoSideEffects) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.contains(0x1000));
  EXPECT_EQ(c.stats().reads, 0u);
  c.access(0x1000, AccessType::Read, 1, 0);
  EXPECT_TRUE(c.contains(0x1000));
}

TEST(Cache, ResetClearsEverything) {
  Cache c(tiny_cache());
  c.access(0, AccessType::Read, 1, 0);
  c.reset();
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.stats().reads, 0u);
}

TEST(MemorySystem, Table1LatencyLadder) {
  MemorySystem ms;  // defaults reproduce Table 1
  // Cold access: L1(1) + L2(12) + DRAM(120).
  const auto miss = ms.access(0x2000, AccessType::Read, 0);
  EXPECT_FALSE(miss.l1_hit);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_EQ(miss.latency, 1 + 12 + 120);
  // L1 hit after fill completes.
  const auto hit = ms.access(0x2000, AccessType::Read, 200);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_EQ(hit.latency, 1);
}

TEST(MemorySystem, L2HitCostsL1PlusL2) {
  MemorySystem ms;
  // Fill L1 and L2, then evict from the (smaller) L1 by conflicting
  // blocks: L1 has 256 sets * 32B blocks; same set every 8 KiB.
  ms.access(0x0, AccessType::Read, 0);
  for (int w = 1; w <= 4; ++w)
    ms.access(static_cast<std::uint64_t>(w) * 8192, AccessType::Read,
              static_cast<std::uint64_t>(w) * 200);
  const auto r = ms.access(0x0, AccessType::Read, 5000);
  EXPECT_FALSE(r.l1_hit);
  EXPECT_TRUE(r.l2_hit);
  EXPECT_EQ(r.latency, 1 + 12);
}

TEST(MemorySystem, AccessDuringFillPaysRemainingLatency) {
  MemorySystem ms;
  ms.access(0x3000, AccessType::Prefetch, 0);  // data ready at 133
  const auto r = ms.access(0x3000, AccessType::Read, 100);
  EXPECT_TRUE(r.l1_hit);
  EXPECT_EQ(r.latency, 1 + 33);  // remaining wait + L1 latency
}

TEST(MemorySystem, LatencySweepConfigs) {
  const MemConfig cfg{.l2_latency = 16, .dram_latency = 160};
  MemorySystem ms(cfg);
  const auto r = ms.access(0x0, AccessType::Read, 0);
  EXPECT_EQ(r.latency, 1 + 16 + 160);
}

TEST(MemorySystem, ProfileAttributesMissesToInstructions) {
  MemorySystem ms;
  ms.access(0x1000, AccessType::Read, 0, /*static_idx=*/7);
  ms.access(0x1000, AccessType::Read, 200, 7);
  ms.access(0x5000, AccessType::Read, 300, 9);
  const auto& prof = ms.profile();
  EXPECT_EQ(prof.at(7).accesses, 2u);
  EXPECT_EQ(prof.at(7).misses, 1u);
  EXPECT_EQ(prof.at(9).misses, 1u);
}

TEST(MemorySystem, PrefetchDoesNotPolluteProfileOrDemandStats) {
  MemorySystem ms;
  ms.access(0x1000, AccessType::Prefetch, 0, 3);
  EXPECT_TRUE(ms.profile().empty());
  EXPECT_EQ(ms.l1().stats().demand_accesses(), 0u);
  EXPECT_EQ(ms.l1().stats().prefetches, 1u);
}

TEST(MemorySystem, BusContentionSerializesMisses) {
  mem::MemConfig cfg;
  cfg.l2_bus_cycles = 10;
  MemorySystem ms(cfg);
  // Two simultaneous cold misses: the second waits for the bus.
  const auto a = ms.access(0x10000, AccessType::Read, 0);
  const auto b = ms.access(0x20000, AccessType::Read, 0);
  EXPECT_EQ(b.latency, a.latency + 10);
  EXPECT_EQ(ms.bus_busy_cycles(), 20u);
}

TEST(MemorySystem, BusOffByDefault) {
  MemorySystem ms;
  const auto a = ms.access(0x10000, AccessType::Read, 0);
  const auto b = ms.access(0x20000, AccessType::Read, 0);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(ms.bus_busy_cycles(), 0u);
}

TEST(MemorySystem, HitsNeverTouchTheBus) {
  mem::MemConfig cfg;
  cfg.l2_bus_cycles = 10;
  MemorySystem ms(cfg);
  ms.access(0x10000, AccessType::Read, 0);
  const auto before = ms.bus_busy_cycles();
  ms.access(0x10000, AccessType::Read, 500);  // L1 hit
  EXPECT_EQ(ms.bus_busy_cycles(), before);
}

TEST(Cache, PrefetchGroupAttribution) {
  Cache c(tiny_cache());
  c.access(0x00, AccessType::Prefetch, 1, 0, /*pf_group=*/3);
  c.access(0x40, AccessType::Prefetch, 2, 0, 3);
  c.access(0x00, AccessType::Read, 10, 0);  // group 3: used
  // Fill set 0 (blocks map set = block & 1): 0x00, 0x40, 0x80 share set 0
  // in a 2-set/16B cache -> evict the unused 0x40 eventually.
  c.access(0x80, AccessType::Read, 11, 0);
  c.access(0xc0, AccessType::Read, 12, 0);  // set 1
  c.access(0x100, AccessType::Read, 13, 0); // set 0 again: evicts 0x40
  const auto& g = c.prefetch_group_stats().at(3);
  EXPECT_EQ(g.installed, 2u);
  EXPECT_EQ(g.used, 1u);
  EXPECT_EQ(g.evicted_unused, 1u);
}

TEST(Cache, UngroupedPrefetchesAreNotTracked) {
  Cache c(tiny_cache());
  c.access(0x00, AccessType::Prefetch, 1, 0);
  c.access(0x00, AccessType::Read, 2, 0);
  EXPECT_TRUE(c.prefetch_group_stats().empty());
}

// The cache as it was first written: every line value-initialised with an
// explicit valid bit, a miss taking the last invalid way (the first way if
// only it is invalid) or else the LRU line, reset() rewriting every line.
// Kept as an independent copy so the lazily filled sets of mem::Cache are
// checked against the plain semantics.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg)
      : cfg_(cfg), lines_(static_cast<std::size_t>(cfg.sets) * cfg.assoc) {}

  LookupResult access(std::uint64_t addr, AccessType type, std::uint64_t now,
                      std::uint64_t fill_ready, std::int16_t pf_group) {
    const std::uint64_t tag = addr / cfg_.block_bytes;
    Line* base = &lines_[(tag % cfg_.sets) * cfg_.assoc];
    std::uint64_t& misses = type == AccessType::Read    ? stats.read_misses
                            : type == AccessType::Write ? stats.write_misses
                                                        : stats.prefetch_misses;
    ++(type == AccessType::Read    ? stats.reads
       : type == AccessType::Write ? stats.writes
                                   : stats.prefetches);
    LookupResult r;
    for (int w = 0; w < cfg_.assoc; ++w) {
      Line& l = base[w];
      if (!l.valid || l.tag != tag) continue;
      l.lru = ++stamp_;
      if (type == AccessType::Write) l.dirty = true;
      if (type != AccessType::Prefetch) {
        const bool in_flight = l.ready > now;
        if (l.prefetched) {
          if (!in_flight) ++stats.useful_prefetches;
          if (l.pf_group >= 0) {
            ++groups[l.pf_group].used;
            if (in_flight) ++groups[l.pf_group].late;
          }
          if (in_flight) ++stats.late_prefetch_hits;
          l.prefetched = false;
          l.pf_group = -1;
        }
        if (in_flight) {
          ++stats.late_fill_hits;
          ++misses;
        }
      }
      r.hit = true;
      r.ready = l.ready;
      return r;
    }
    ++misses;
    Line* victim = base;
    for (int w = 1; w < cfg_.assoc; ++w)
      if (!base[w].valid || (victim->valid && base[w].lru < victim->lru))
        victim = &base[w];
    if (victim->valid) {
      ++stats.evictions;
      if (victim->prefetched && victim->pf_group >= 0)
        ++groups[victim->pf_group].evicted_unused;
      if (victim->dirty) {
        ++stats.writebacks;
        r.evicted_dirty = true;
        r.evicted_addr = victim->tag * cfg_.block_bytes;
      }
    }
    const bool pf = type == AccessType::Prefetch;
    *victim = Line{tag, ++stamp_, fill_ready, pf ? pf_group : std::int16_t{-1},
                   true, type == AccessType::Write, pf};
    if (pf && pf_group >= 0) ++groups[pf_group].installed;
    r.ready = fill_ready;
    return r;
  }

  bool contains(std::uint64_t addr) const {
    const std::uint64_t tag = addr / cfg_.block_bytes;
    const Line* base = &lines_[(tag % cfg_.sets) * cfg_.assoc];
    for (int w = 0; w < cfg_.assoc; ++w)
      if (base[w].valid && base[w].tag == tag) return true;
    return false;
  }

  void reset() {
    for (auto& l : lines_) l = Line{};
    stats = CacheStats{};
    groups.clear();
    stamp_ = 0;
  }

  CacheStats stats;
  std::unordered_map<std::int16_t, Cache::PrefetchGroupStats> groups;

 private:
  struct Line {
    std::uint64_t tag = 0, lru = 0, ready = 0;
    std::int16_t pf_group = -1;
    bool valid = false, dirty = false, prefetched = false;
  };
  CacheConfig cfg_;
  std::vector<Line> lines_;
  std::uint64_t stamp_ = 0;
};

void expect_same_groups(const Cache& c, const RefCache& ref,
                        const std::string& where) {
  ASSERT_EQ(c.prefetch_group_stats().size(), ref.groups.size()) << where;
  for (const auto& [g, want] : ref.groups) {
    const auto it = c.prefetch_group_stats().find(g);
    ASSERT_NE(it, c.prefetch_group_stats().end()) << where << " group " << g;
    const auto& got = it->second;
    EXPECT_EQ(got.installed, want.installed) << where << " group " << g;
    EXPECT_EQ(got.used, want.used) << where << " group " << g;
    EXPECT_EQ(got.late, want.late) << where << " group " << g;
    EXPECT_EQ(got.evicted_unused, want.evicted_unused)
        << where << " group " << g;
  }
}

// Random read/write/prefetch streams over a footprint of three cache
// capacities (so sets fill, evict and write back), with fills landing in
// the future (late hits), CMAS-grouped and ungrouped prefetches, and a
// reset() every 700 accesses: every LookupResult, contains() probe,
// CacheStats and group counter must match the value-initialised model.
TEST(Cache, LazySetsMatchValueInitialisedModel) {
  const CacheConfig geometries[] = {
      {1, 16, 1},  {2, 16, 2},  {4, 32, 3},
      {8, 64, 4},  {16, 32, 8}, {256, 32, 4},
  };
  for (const auto& cfg : geometries) {
    Cache c(cfg);
    RefCache ref(cfg);
    std::mt19937_64 rng(0xCA5Eu + static_cast<std::uint64_t>(cfg.sets) * 31 +
                        static_cast<std::uint64_t>(cfg.assoc));
    const std::uint64_t footprint =
        3ull * static_cast<std::uint64_t>(cfg.size_bytes());
    std::uint64_t now = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::string where = "sets=" + std::to_string(cfg.sets) +
                                " assoc=" + std::to_string(cfg.assoc) +
                                " step " + std::to_string(step);
      if (step % 700 == 699) {
        c.reset();
        ref.reset();
      }
      now += rng() % 4;
      const std::uint64_t addr = rng() % footprint;
      const auto type = static_cast<AccessType>(rng() % 3);
      const std::uint64_t fill_ready = now + rng() % 40;
      const auto group = static_cast<std::int16_t>(
          static_cast<int>(rng() % 5) - 1);  // -1 (none) or groups 0..3
      const auto got = c.access(addr, type, now, fill_ready, group);
      const auto want = ref.access(addr, type, now, fill_ready, group);
      ASSERT_EQ(got.hit, want.hit) << where;
      ASSERT_EQ(got.ready, want.ready) << where;
      ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << where;
      if (want.evicted_dirty) {
        ASSERT_EQ(got.evicted_addr, want.evicted_addr) << where;
      }
      const std::uint64_t probe = rng() % footprint;
      ASSERT_EQ(c.contains(probe), ref.contains(probe)) << where;
      ASSERT_EQ(c.stats(), ref.stats) << where;
      expect_same_groups(c, ref, where);
    }
  }
}

TEST(CacheStats, MissRate) {
  CacheStats s;
  s.reads = 80;
  s.read_misses = 10;
  s.writes = 20;
  s.write_misses = 10;
  EXPECT_DOUBLE_EQ(s.demand_miss_rate(), 0.2);
  EXPECT_DOUBLE_EQ(CacheStats{}.demand_miss_rate(), 0.0);
}

}  // namespace
}  // namespace hidisc::mem
