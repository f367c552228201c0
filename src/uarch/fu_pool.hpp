// Functional-unit pools.
//
// Table 1: 4 integer ALUs + 1 integer MUL/DIV per processor; 4 FP adders +
// 1 FP MUL/DIV on the superscalar and the CP.  ALU/FP-add/FP-mul units are
// pipelined (busy one cycle per issue); divide units are unpipelined (busy
// for the whole operation).
//
// Units are interchangeable, so the pool keeps no per-unit state: only a
// min-heap of the release times of currently-busy units, lazily pruned as
// time advances.  `available`/`acquire` are O(1) amortized and
// `next_release` reads the heap top instead of scanning every unit — the
// event-skip scheduler calls it on every stalled step.  The heap is sized
// once to the unit count, so no member ever allocates after construction
// (the noexcept promises are real).  Queries assume `now` never moves
// backwards, which the cores guarantee.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "uarch/event.hpp"

namespace hidisc::uarch {

class FuPool {
 public:
  FuPool() = default;
  explicit FuPool(int units) : units_(units) {
    busy_.reserve(static_cast<std::size_t>(units));
  }

  [[nodiscard]] int size() const noexcept { return units_; }

  // True if some unit can accept an operation this cycle.
  [[nodiscard]] bool available(std::uint64_t now) const noexcept {
    prune(now);
    return busy_.size() < static_cast<std::size_t>(units_);
  }

  // Claims a unit for `busy` cycles; returns false when none is free.
  bool acquire(std::uint64_t now, int busy) noexcept {
    prune(now);
    if (busy_.size() >= static_cast<std::size_t>(units_)) return false;
    busy_.push_back(now + static_cast<std::uint64_t>(busy));
    std::push_heap(busy_.begin(), busy_.end(), std::greater<>{});
    return true;
  }

  // Earliest cycle strictly after `now` at which a busy unit frees up;
  // kNoEvent when every unit is already free (or the pool is empty).
  [[nodiscard]] std::uint64_t next_release(std::uint64_t now) const noexcept {
    prune(now);
    return busy_.empty() ? kNoEvent : busy_.front();
  }

  void reset() noexcept { busy_.clear(); }

 private:
  // Units whose release time has passed are free again; drop them.
  void prune(std::uint64_t now) const noexcept {
    while (!busy_.empty() && busy_.front() <= now) {
      std::pop_heap(busy_.begin(), busy_.end(), std::greater<>{});
      busy_.pop_back();
    }
  }

  int units_ = 0;
  // Min-heap of busy units' release times; `mutable` for lazy pruning
  // under const queries (pruning never changes observable behaviour).
  mutable std::vector<std::uint64_t> busy_;
};

}  // namespace hidisc::uarch
