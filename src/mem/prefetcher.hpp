// Hardware prefetchers for the L1D: the conventional baseline to the CMP.
//
// The paper's Cache Management Processor is one point in the prefetch
// design space: a software-visible slice processor that runs CMAS slices
// ahead of the AP.  This module implements the conventional alternative a
// modern memory system would ship instead, so `hilab --plan prefetch` can
// answer "would a hardware prefetcher beat the CMP?" across the Fig. 10
// latency sweep:
//
//   ipstride  per-PC stride table (the classic IP-stride prefetcher); the
//             `prefetch` plan's baseline
//   sms       spatial-memory-streaming: per-(PC, region-offset) footprint
//             patterns replayed on the first touch of a region (server
//             prefetching survey, arxiv 2009.00715)
//
// Both schemes train on every demand access, hit or miss, and are
// deterministic pure functions of the demand block/PC stream (fixed-size
// direct-mapped tables, no randomness, no wall-clock), which is what keeps
// Results bit-identical across schedulers and thread counts: the demand
// stream itself is identical, so the prefetch stream is too.  Fills issue
// through MemorySystem::access(AccessType::Prefetch) at the observing
// access's cycle, so they ride the existing timed fill path: a later
// access to the block pays whatever of the fill remains.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hidisc::mem {

enum class PrefetchKind : std::uint8_t {
  None,
  IpStride,
  Sms,
};

// Knobs shared by both schemes; a scheme ignores what does not apply.
struct PrefetchConfig {
  PrefetchKind kind = PrefetchKind::None;
  // Prefetch candidates emitted per triggering access (ipstride: stride
  // multiples; sms: pattern blocks).
  int degree = 2;
  // Lookahead: ipstride starts `distance` strides ahead of the trigger.
  int distance = 1;
  // Spatial region size for sms, in L1 blocks.  Power of two, <= 64 (the
  // footprint is a 64-bit map).
  int sms_region_blocks = 16;
};

// Round-trips a config through the `hilab --override` spec grammar:
//
//   none | ipstride[:degN][:distN] | sms[:degN][:regionN]
//
// (none has the alias off); e.g. "ipstride:deg4", "ipstride:dist4",
// "sms:region4".  A kind takes only the knobs it reads.  prefetch_spec
// prints only those knobs, and only off their defaults, in that order, so
// configs that run one simulation print one spec.  parse_prefetch_spec
// throws std::invalid_argument on an unknown kind, a token its kind does
// not take (the message names the valid ones) or an out-of-range knob.
[[nodiscard]] std::string prefetch_spec(const PrefetchConfig& cfg);
[[nodiscard]] PrefetchConfig parse_prefetch_spec(std::string_view spec);

// One observed demand access, as the prefetchers see it.
struct PrefetchAccess {
  std::uint64_t block = 0;   // byte address / L1 block size
  std::int32_t pc = -1;      // static instruction index (-1: unattributed)
};

// Accurate/late/useless accounting for the hardware prefetcher, assembled
// by MemorySystem::hw_prefetch_stats() from its own issue counters plus
// the L1's per-group outcome tracking (the hw prefetcher owns the
// reserved kHwPrefetchGroup CMAS-group id).  All counters, so Results
// stay bit-comparable.
struct HwPrefetchStats {
  std::uint64_t trains = 0;    // demand accesses observed
  std::uint64_t issued = 0;    // prefetches sent into the hierarchy
  std::uint64_t filtered = 0;  // candidates dropped: line already in L1
  std::uint64_t installed = 0;  // L1 lines allocated by the prefetcher
  std::uint64_t used = 0;       // installed lines later demand-touched
  std::uint64_t late = 0;       // ... touched while the fill was in flight
  std::uint64_t evicted_unused = 0;  // evicted before any demand touch

  // Demand touches that arrived after the fill landed — the hits that
  // actually removed misses (paper Figure 9 semantics).
  [[nodiscard]] std::uint64_t timely() const noexcept { return used - late; }
  [[nodiscard]] double accuracy() const noexcept {
    return installed == 0 ? 0.0
                          : static_cast<double>(used) /
                                static_cast<double>(installed);
  }
  [[nodiscard]] double lateness() const noexcept {
    return used == 0 ? 0.0
                     : static_cast<double>(late) / static_cast<double>(used);
  }

  friend bool operator==(const HwPrefetchStats&,
                         const HwPrefetchStats&) = default;
};

// The CMAS-group id reserved for hardware-prefetcher fills in the L1's
// per-group outcome stats.  Compiler-assigned CMAS groups count up from 0
// and are bounded by the slice count of one kernel; the top of the int16
// range can never collide with them.
inline constexpr std::int16_t kHwPrefetchGroup = 0x7fff;

// A prefetch scheme: observes the demand stream, appends candidate byte
// addresses (block-aligned) to `out`.  The caller (MemorySystem) filters
// lines already resident and issues the rest as AccessType::Prefetch.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;
  virtual void observe(const PrefetchAccess& ev,
                       std::vector<std::uint64_t>& out) = 0;
};

// Builds the scheme `cfg.kind` names (nullptr for None).  Throws
// std::invalid_argument on bad knobs (degree outside [1, 64], distance
// outside [1, 4096], sms region not a power of two <= 64 blocks).
[[nodiscard]] std::unique_ptr<Prefetcher> make_prefetcher(
    const PrefetchConfig& cfg, int block_bytes);

}  // namespace hidisc::mem
