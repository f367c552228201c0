// Functional-unit pools.
//
// Table 1: 4 integer ALUs + 1 integer MUL/DIV per processor; 4 FP adders +
// 1 FP MUL/DIV on the superscalar and the CP.  ALU/FP-add/FP-mul units are
// pipelined (busy one cycle per issue); divide units are unpipelined (busy
// for the whole operation).  The CMP's prefetch buffer is a pool too: one
// unit per in-flight fire-and-forget fill, busy until the fill lands.
//
// Each unit keeps the cycle it is busy until; a unit is free at `now` once
// that cycle is <= now.  Pools hold a handful of units (the largest, the
// CMP's prefetch buffer, has 8), so `available`, `acquire` and `next_release` are plain linear
// scans over the array, which is sized once at construction and never
// allocates again.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "uarch/event.hpp"

namespace hidisc::uarch {

class FuPool {
 public:
  FuPool() = default;
  explicit FuPool(int units)
      : busy_until_(static_cast<std::size_t>(units), 0) {}

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(busy_until_.size());
  }

  // True if some unit can accept an operation this cycle.
  [[nodiscard]] bool available(std::uint64_t now) const noexcept {
    return std::any_of(busy_until_.begin(), busy_until_.end(),
                       [now](std::uint64_t t) { return t <= now; });
  }

  // Claims a unit for `busy` cycles; returns false when none is free.
  bool acquire(std::uint64_t now, int busy) noexcept {
    for (auto& t : busy_until_)
      if (t <= now) {
        t = now + static_cast<std::uint64_t>(busy);
        return true;
      }
    return false;
  }

  // Earliest cycle strictly after `now` at which a busy unit frees up;
  // kNoEvent when every unit is already free (or the pool is empty).
  [[nodiscard]] std::uint64_t next_release(std::uint64_t now) const noexcept {
    std::uint64_t ev = kNoEvent;
    for (const auto t : busy_until_)
      if (t > now) ev = std::min(ev, t);
    return ev;
  }

 private:
  std::vector<std::uint64_t> busy_until_;  // per unit: busy until this cycle
};

}  // namespace hidisc::uarch
