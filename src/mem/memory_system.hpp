// Two-level data memory hierarchy: L1D -> unified L2 -> DRAM.
//
// Latencies default to the paper's Table 1 (L1 1 cycle, L2 12, DRAM 120).
// `access` returns the number of cycles until the data is available,
// accounting for fills still in flight (late prefetches).  A per-static-
// instruction miss profile can be recorded for the HiDISC compiler's CMAS
// selection (paper §4.2: "the CMAS is defined with the help of the cache
// access profile").
//
// An optional hardware prefetcher (mem/prefetcher.hpp) observes the L1D
// demand stream and issues AccessType::Prefetch fills through the same
// timed path as demand misses.
//
// A fill landing is never a scheduler event: a line only carries its
// `ready` stamp, which `access` compares with `now` when it is called, and
// every waiter holds the fill's time as its own event (a load's
// completion, the CMP prefetch buffer's busy-until).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/prefetcher.hpp"

namespace hidisc::mem {

// Table 1's caches, which no configuration varies; lab::describe() keys
// them.
inline constexpr CacheConfig kL1Cache{256, 32, 4};
inline constexpr int kL1Latency = 1;
inline constexpr CacheConfig kL2Cache{1024, 64, 4};

struct MemConfig {
  // The latency sweep of Figure 10 varies (L2, DRAM) through
  // {4/40, 8/80, 12/120, 16/160}.
  int l2_latency = 12;
  int dram_latency = 120;
  // Occupancy of the L1<->L2 bus per miss transaction, in cycles.  0
  // disables contention modelling (infinite bandwidth, the default — the
  // paper models latency only).  When enabled, CMP prefetch traffic
  // competes with demand misses for the same bus.
  int l2_bus_cycles = 0;
  // Hardware prefetcher for the L1D demand stream (kind None = off).
  // Prefetch fills claim the L1<->L2 bus like any miss, so under
  // contention modelling they compete with demand traffic too.
  PrefetchConfig prefetch{};
};

struct AccessResult {
  int latency = 0;     // cycles until data available (>= L1 hit latency)
  bool l1_hit = false;
  bool l2_hit = false;
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemConfig& cfg = MemConfig{});

  // Performs a data access at cycle `now`.  `static_idx`, when >= 0,
  // attributes an L1 demand miss to that static instruction in the profile.
  AccessResult access(std::uint64_t addr, AccessType type, std::uint64_t now,
                      std::int32_t static_idx = -1,
                      std::int16_t pf_group = -1);

  [[nodiscard]] const Cache& l1() const noexcept { return l1_; }
  [[nodiscard]] const Cache& l2() const noexcept { return l2_; }

  // Accurate/late/useless accounting for the hardware prefetcher: issue-
  // side counters merged with the L1's outcome tracking for the reserved
  // kHwPrefetchGroup.  All-zero when no prefetcher is configured.
  [[nodiscard]] HwPrefetchStats hw_prefetch_stats() const;

  // Profile, indexed by static instruction: {accesses, L1 demand misses}.
  // Flat (grown on demand to the largest static_idx seen) so the hot
  // demand-access path is one indexed add, not a hash probe.
  struct ProfileEntry {
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] const std::vector<ProfileEntry>& profile() const noexcept {
    return profile_;
  }

  [[nodiscard]] std::uint64_t bus_busy_cycles() const noexcept {
    return bus_busy_cycles_;
  }

 private:
  // Claims the L1<->L2 bus at `now`; returns the transaction start cycle
  // (== now when contention modelling is off).
  [[nodiscard]] std::uint64_t claim_bus(std::uint64_t now);

  // Feeds one demand access to the hardware prefetcher and issues the
  // candidates it emits (minus those already resident in L1).
  void train_prefetcher(std::uint64_t addr, std::uint64_t now,
                        std::int32_t static_idx);

  MemConfig cfg_;
  Cache l1_;
  Cache l2_;

  std::uint64_t bus_free_ = 0;
  std::uint64_t bus_busy_cycles_ = 0;
  // Grows `profile_` to cover `idx` and returns the slot.
  [[nodiscard]] ProfileEntry& profile_slot(std::int32_t idx) {
    const auto i = static_cast<std::size_t>(idx);
    if (i >= profile_.size()) profile_.resize(i + 1);
    return profile_[i];
  }

  std::vector<ProfileEntry> profile_;

  std::unique_ptr<Prefetcher> prefetcher_;
  HwPrefetchStats pf_;  // issue-side counters (trains/issued/filtered)
  std::vector<std::uint64_t> pf_buf_;  // scratch for Prefetcher::observe
};

}  // namespace hidisc::mem
