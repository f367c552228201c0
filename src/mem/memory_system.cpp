#include "mem/memory_system.hpp"

#include <algorithm>

namespace hidisc::mem {

MemorySystem::MemorySystem(const MemConfig& cfg)
    : cfg_(cfg),
      l1_(kL1Cache),
      l2_(kL2Cache),
      prefetcher_(make_prefetcher(cfg.prefetch, kL1Cache.block_bytes)) {}

HwPrefetchStats MemorySystem::hw_prefetch_stats() const {
  HwPrefetchStats s = pf_;
  const auto& groups = l1_.prefetch_group_stats();
  if (const auto it = groups.find(kHwPrefetchGroup); it != groups.end()) {
    s.installed = it->second.installed;
    s.used = it->second.used;
    s.late = it->second.late;
    s.evicted_unused = it->second.evicted_unused;
  }
  return s;
}

std::uint64_t MemorySystem::claim_bus(std::uint64_t now) {
  if (cfg_.l2_bus_cycles <= 0) return now;
  const std::uint64_t start = std::max(now, bus_free_);
  bus_free_ = start + static_cast<std::uint64_t>(cfg_.l2_bus_cycles);
  bus_busy_cycles_ += static_cast<std::uint64_t>(cfg_.l2_bus_cycles);
  return start;
}

void MemorySystem::train_prefetcher(std::uint64_t addr, std::uint64_t now,
                                    std::int32_t static_idx) {
  ++pf_.trains;
  pf_buf_.clear();
  prefetcher_->observe(
      {addr / static_cast<std::uint64_t>(kL1Cache.block_bytes), static_idx},
      pf_buf_);
  for (const auto cand : pf_buf_) {
    if (l1_.contains(cand)) {
      ++pf_.filtered;
      continue;
    }
    ++pf_.issued;
    // Recursion is shallow and safe: prefetch accesses never re-enter the
    // trainer (they are not demand traffic) and never touch pf_buf_.
    access(cand, AccessType::Prefetch, now, -1, kHwPrefetchGroup);
  }
}

AccessResult MemorySystem::access(std::uint64_t addr, AccessType type,
                                  std::uint64_t now, std::int32_t static_idx,
                                  std::int16_t pf_group) {
  AccessResult out;
  const bool demand = type != AccessType::Prefetch;
  if (demand && static_idx >= 0) ++profile_slot(static_idx).accesses;

  // L1 lookup.  On a miss we must know the fill time before allocating, so
  // probe L2 first in that case.
  if (l1_.contains(addr)) {
    const auto r1 = l1_.access(addr, type, now, /*fill_ready=*/0);
    out.l1_hit = true;
    // Wait for an in-flight fill if the line isn't ready yet.
    const auto wait =
        r1.ready > now ? static_cast<int>(r1.ready - now) : 0;
    out.latency = kL1Latency + wait;
    if (demand && prefetcher_)
      train_prefetcher(addr, now, static_idx);
    return out;
  }

  if (demand && static_idx >= 0) ++profile_slot(static_idx).misses;

  // An L1 miss is a bus transaction: under contention modelling the
  // request waits for the bus before the L2 lookup begins.
  const std::uint64_t start = claim_bus(now);

  // L2 lookup.
  std::uint64_t data_ready;
  if (l2_.contains(addr)) {
    const auto r2 = l2_.access(addr, type, start, /*fill_ready=*/0);
    out.l2_hit = true;
    const std::uint64_t base_ready = start + kL1Latency + cfg_.l2_latency;
    data_ready = std::max(base_ready, r2.ready + cfg_.l2_latency);
  } else {
    const std::uint64_t fill_l2 =
        start + kL1Latency + cfg_.l2_latency + cfg_.dram_latency;
    const auto r2 = l2_.access(addr, type, start, fill_l2);
    // A dirty L2 victim goes to memory; modelled as a stat only.
    (void)r2;
    data_ready = fill_l2;
  }

  // Allocate in L1 with the computed fill time.
  const auto r1 = l1_.access(addr, type, now, data_ready, pf_group);
  if (r1.evicted_dirty) {
    // Write the dirty L1 victim back into L2 (it stays dirty there).
    if (l2_.contains(r1.evicted_addr))
      l2_.access(r1.evicted_addr, AccessType::Write, now, 0);
    // If L2 already evicted it, the writeback goes straight to memory;
    // counted by the L1 writeback stat.
  }

  const auto wait = data_ready > now ? static_cast<int>(data_ready - now) : 0;
  out.latency = std::max(kL1Latency, wait);
  // Train after the demand allocation so the miss's own block is resident
  // (candidates aliasing it get filtered, not re-issued).
  if (demand && prefetcher_)
    train_prefetcher(addr, now, static_idx);
  return out;
}

}  // namespace hidisc::mem
