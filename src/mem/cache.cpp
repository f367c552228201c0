#include "mem/cache.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace hidisc::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg.sets <= 0 || cfg.assoc <= 0 || cfg.block_bytes <= 0)
    throw std::invalid_argument("cache: non-positive geometry");
  if ((cfg.sets & (cfg.sets - 1)) != 0)
    throw std::invalid_argument("cache: sets must be a power of two");
  if ((cfg.block_bytes & (cfg.block_bytes - 1)) != 0)
    throw std::invalid_argument("cache: block size must be a power of two");
  const auto sets = static_cast<std::size_t>(cfg.sets);
  const std::size_t lines = sets * static_cast<std::size_t>(cfg.assoc);
  // Default-initialised bytes: no line is written here.  Line and int are
  // implicit-lifetime types, so the byte array's storage holds them.
  storage_.reset(new std::byte[lines * sizeof(Line) + sets * sizeof(int)]);
  lines_ = std::launder(reinterpret_cast<Line*>(storage_.get()));
  filled_ = std::launder(
      reinterpret_cast<int*>(storage_.get() + lines * sizeof(Line)));
  std::fill_n(filled_, sets, 0);
}

void Cache::reset() {
  std::fill_n(filled_, cfg_.sets, 0);
  stats_ = CacheStats{};
  pf_groups_.clear();
  stamp_ = 0;
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t block = block_of(addr);
  const auto set = static_cast<std::size_t>(block & (cfg_.sets - 1));
  const std::uint64_t tag = block;  // full block id as tag: simple & safe
  const Line* base = lines_ + set * cfg_.assoc;
  for (int w = cfg_.assoc - filled_[set]; w < cfg_.assoc; ++w)
    if (base[w].tag == tag) return true;
  return false;
}

LookupResult Cache::access(std::uint64_t addr, AccessType type,
                           std::uint64_t now, std::uint64_t fill_ready,
                           std::int16_t pf_group) {
  const std::uint64_t block = block_of(addr);
  const auto set = static_cast<std::size_t>(block & (cfg_.sets - 1));
  const std::uint64_t tag = block;  // store the whole block id; simple & safe
  Line* base = lines_ + set * cfg_.assoc;
  int& filled = filled_[set];

  switch (type) {
    case AccessType::Read: ++stats_.reads; break;
    case AccessType::Write: ++stats_.writes; break;
    case AccessType::Prefetch: ++stats_.prefetches; break;
  }

  // Hit path.  A demand access to a line whose fill is still in flight is
  // a delayed hit: the data is coming (MSHR merge) but, like
  // sim-outorder, it counts as a miss in the statistics — only prefetches
  // that complete in time actually remove misses (paper Figure 9).
  for (int w = cfg_.assoc - filled; w < cfg_.assoc; ++w) {
    Line& line = base[w];
    if (line.tag != tag) continue;
    line.lru = ++stamp_;
    if (type == AccessType::Write) line.dirty = true;
    if (type != AccessType::Prefetch) {
      const bool in_flight = line.ready > now;
      const bool was_prefetched = line.prefetched;
      if (line.prefetched) {
        if (!in_flight) ++stats_.useful_prefetches;
        if (line.pf_group >= 0) {
          auto& g = pf_groups_[line.pf_group];
          ++g.used;
          if (in_flight) ++g.late;
        }
        line.prefetched = false;
        line.pf_group = -1;
      }
      if (in_flight) {
        ++stats_.late_fill_hits;
        if (was_prefetched) ++stats_.late_prefetch_hits;
        if (type == AccessType::Write) ++stats_.write_misses;
        else ++stats_.read_misses;
      }
    }
    LookupResult r;
    r.hit = true;
    r.ready = line.ready;
    return r;
  }

  // Miss path: count, pick a victim, allocate.
  switch (type) {
    case AccessType::Read: ++stats_.read_misses; break;
    case AccessType::Write: ++stats_.write_misses; break;
    case AccessType::Prefetch: ++stats_.prefetch_misses; break;
  }
  // The highest free way if the set has one, else the LRU line.
  LookupResult r;
  Line* victim = base;
  if (filled < cfg_.assoc) {
    victim = &base[cfg_.assoc - 1 - filled];
    ++filled;
  } else {
    for (int w = 1; w < cfg_.assoc; ++w)
      if (base[w].lru < victim->lru) victim = &base[w];
    ++stats_.evictions;
    if (victim->prefetched && victim->pf_group >= 0)
      ++pf_groups_[victim->pf_group].evicted_unused;
    if (victim->dirty) {
      ++stats_.writebacks;
      r.evicted_dirty = true;
      r.evicted_addr =
          victim->tag * static_cast<std::uint64_t>(cfg_.block_bytes);
    }
  }
  victim->tag = tag;
  victim->lru = ++stamp_;
  victim->ready = fill_ready;
  victim->dirty = type == AccessType::Write;
  victim->prefetched = type == AccessType::Prefetch;
  victim->pf_group = type == AccessType::Prefetch ? pf_group : -1;
  if (victim->prefetched && pf_group >= 0) ++pf_groups_[pf_group].installed;
  r.hit = false;
  r.ready = fill_ready;
  return r;
}

}  // namespace hidisc::mem
