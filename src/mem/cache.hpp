// Set-associative cache model (write-back, write-allocate, true LRU).
//
// Matches the paper's Table 1 organizations: L1D 256 sets x 32 B x 4-way,
// unified L2 1024 sets x 64 B x 4-way.  Lines carry a `ready` cycle so that
// a demand access arriving while a fill for the same block is still in
// flight (an MSHR hit — e.g. a late CMP prefetch) pays only the remaining
// latency instead of a full miss.
//
// Construction and reset() cost the set count, not the capacity: a set
// records how many of its ways hold a line, and line storage stays
// unwritten until a fill claims it, so a short run pays only for the sets
// it touches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace hidisc::mem {

enum class AccessType : std::uint8_t { Read, Write, Prefetch };

// Geometry only: the hit latency belongs to the level's owner
// (MemorySystem), which is what charges it.
struct CacheConfig {
  int sets = 256;
  int block_bytes = 32;
  int assoc = 4;

  [[nodiscard]] constexpr int size_bytes() const noexcept {
    return sets * block_bytes * assoc;
  }
};

struct CacheStats {
  std::uint64_t reads = 0, read_misses = 0;
  std::uint64_t writes = 0, write_misses = 0;
  std::uint64_t prefetches = 0, prefetch_misses = 0;
  std::uint64_t evictions = 0, writebacks = 0;
  std::uint64_t useful_prefetches = 0;   // first demand hit on prefetched line
  std::uint64_t late_fill_hits = 0;      // demand hit while fill in flight
  std::uint64_t late_prefetch_hits = 0;  // ... where the fill was a prefetch

  [[nodiscard]] std::uint64_t demand_accesses() const noexcept {
    return reads + writes;
  }
  [[nodiscard]] std::uint64_t demand_misses() const noexcept {
    return read_misses + write_misses;
  }
  [[nodiscard]] double demand_miss_rate() const noexcept {
    const auto a = demand_accesses();
    return a == 0 ? 0.0 : static_cast<double>(demand_misses()) /
                              static_cast<double>(a);
  }

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

// Result of a lookup at one level.
struct LookupResult {
  bool hit = false;
  // Cycle at which the block's data is available (fills in flight).  Only
  // meaningful on hit; the caller turns it into extra wait cycles.
  std::uint64_t ready = 0;
  // Dirty block that had to be evicted to make room (valid when
  // `evicted_dirty`); the caller writes it to the next level down.
  bool evicted_dirty = false;
  std::uint64_t evicted_addr = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  // Looks up `addr`; on miss, allocates the block (victim chosen by LRU)
  // and records `fill_ready` as the cycle its data arrives.  On hit the
  // existing line's ready time is reported.  LRU is updated on every
  // access.  Write hits mark the line dirty.
  // `pf_group` attributes a prefetch to a CMAS group (-1 = none); demand
  // hits on the line and unused evictions are credited back to the group
  // (see prefetch_group_stats), feeding the machines' runtime range
  // control.
  LookupResult access(std::uint64_t addr, AccessType type, std::uint64_t now,
                      std::uint64_t fill_ready, std::int16_t pf_group = -1);

  // Probe without side effects (no LRU update, no allocation).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  // Per-CMAS-group prefetch outcome counters.
  struct PrefetchGroupStats {
    std::uint64_t installed = 0;
    std::uint64_t used = 0;            // demand-touched (timely or late)
    std::uint64_t late = 0;            // ... while the fill was in flight
    std::uint64_t evicted_unused = 0;  // evicted before any demand touch
  };
  [[nodiscard]] const std::unordered_map<std::int16_t, PrefetchGroupStats>&
  prefetch_group_stats() const noexcept {
    return pf_groups_;
  }

  void reset();

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  // No default member initialisers: a line is written whole by the fill
  // that makes it valid, and never read before that.
  struct Line {
    std::uint64_t tag;
    std::uint64_t lru;         // last-access stamp; larger = more recent
    std::uint64_t ready;       // fill completion cycle
    std::int16_t pf_group;     // CMAS group that prefetched this line
    bool dirty;
    bool prefetched;           // installed by a prefetch, not yet demand-hit
  };

  [[nodiscard]] std::uint64_t block_of(std::uint64_t addr) const noexcept {
    return addr / static_cast<std::uint64_t>(cfg_.block_bytes);
  }

  CacheConfig cfg_;
  CacheStats stats_;
  // One heap block holds the lines (sets * assoc, set-major) and then one
  // fill count per set.  A set fills its ways from the top down (the
  // victim of a set with a free way is its highest free way) and only
  // reset() frees ways, so set s's valid ways are exactly the top
  // filled_[s] of them; the lines below are unwritten storage.  One block,
  // not two: a second small block per cache shifted glibc's heap enough
  // to make it trim and fault back ~30 k pages per 500-kernel campaign.
  std::unique_ptr<std::byte[]> storage_;
  Line* lines_ = nullptr;
  int* filled_ = nullptr;
  std::unordered_map<std::int16_t, PrefetchGroupStats> pf_groups_;
  std::uint64_t stamp_ = 0;
};

}  // namespace hidisc::mem
