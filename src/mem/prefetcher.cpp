#include "mem/prefetcher.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

namespace hidisc::mem {

namespace {

[[nodiscard]] bool power_of_two(int v) noexcept {
  return v > 0 && (v & (v - 1)) == 0;
}

// splitmix64-style finalizer: table indices must not alias for nearby
// PCs/blocks the way a plain modulo would.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Tracker-table entries of both schemes (the ipstride PC table and the sms
// pattern-history table).  Power of two.
constexpr std::size_t kTableEntries = 256;
// Stride confirmations an ipstride entry needs before it issues.
constexpr int kMinConfidence = 2;

// ---- ipstride --------------------------------------------------------------
//
// A direct-mapped table of per-PC stride detectors.  A repeated block delta
// bumps an entry's confidence (saturating at 8), a changed delta rewrites
// the stride and drops confidence to 1; at kMinConfidence or above the
// entry emits `degree` prefetches starting `distance` strides ahead.

class IpStridePrefetcher final : public Prefetcher {
 public:
  IpStridePrefetcher(const PrefetchConfig& cfg, int block_bytes)
      : cfg_(cfg), block_bytes_(static_cast<std::uint64_t>(block_bytes)) {}

  void observe(const PrefetchAccess& ev,
               std::vector<std::uint64_t>& out) override {
    if (ev.pc < 0) return;  // no PC to index by
    const auto pc = static_cast<std::uint64_t>(ev.pc);
    Entry& e = table_[mix(pc) & (kTableEntries - 1)];
    if (!e.valid || e.tag != pc) {  // cold slot or direct-mapped replace
      e = Entry{pc, ev.block, 0, 0, true};
      return;
    }
    const std::int64_t stride = static_cast<std::int64_t>(ev.block) -
                                static_cast<std::int64_t>(e.last_block);
    e.last_block = ev.block;
    if (stride == 0) return;  // same block: neither confirms nor breaks
    if (stride == e.stride) {
      e.confidence = std::min(e.confidence + 1, 8);
    } else {
      e.stride = stride;
      e.confidence = 1;
    }
    if (e.confidence < kMinConfidence) return;
    for (int i = 0; i < cfg_.degree; ++i) {
      const std::int64_t target =
          static_cast<std::int64_t>(ev.block) +
          e.stride * static_cast<std::int64_t>(cfg_.distance + i);
      if (target < 0) break;
      out.push_back(static_cast<std::uint64_t>(target) * block_bytes_);
    }
  }

 private:
  struct Entry {
    std::uint64_t tag = 0;  // owning PC
    std::uint64_t last_block = 0;
    std::int64_t stride = 0;  // in blocks
    int confidence = 0;
    bool valid = false;
  };

  PrefetchConfig cfg_;
  std::uint64_t block_bytes_;
  std::array<Entry, kTableEntries> table_{};
};

// ---- sms -------------------------------------------------------------------
//
// Spatial memory streaming: while a region is "active" its touched-block
// footprint accumulates; when the region's accumulation slot is recycled
// the footprint is committed to a pattern-history table keyed by the
// trigger (PC, offset-in-region).  The next first-touch of any region with
// the same trigger replays the recorded footprint.

class SmsPrefetcher final : public Prefetcher {
 public:
  SmsPrefetcher(const PrefetchConfig& cfg, int block_bytes)
      : cfg_(cfg),
        block_bytes_(static_cast<std::uint64_t>(block_bytes)),
        region_blocks_(static_cast<std::uint64_t>(cfg.sms_region_blocks)) {}

  void observe(const PrefetchAccess& ev,
               std::vector<std::uint64_t>& out) override {
    const std::uint64_t region = ev.block / region_blocks_;
    const auto offset = static_cast<int>(ev.block % region_blocks_);

    AccEntry& a = acc_[mix(region) & (kAccEntries - 1)];
    if (a.valid && a.region == region) {
      a.pattern |= std::uint64_t{1} << offset;  // ongoing generation
      return;
    }
    // Slot recycled: commit the evicted generation's footprint, then open
    // a new generation triggered by this access.
    if (a.valid) commit(a);
    a.valid = true;
    a.region = region;
    a.pattern = std::uint64_t{1} << offset;
    a.trigger = trigger_key(ev.pc, offset);

    // Replay the learned footprint for this trigger, if any.
    const PhtEntry& p = pht_[mix(a.trigger) & (kTableEntries - 1)];
    if (!p.valid || p.trigger != a.trigger) return;
    const std::uint64_t base = region * region_blocks_;
    int emitted = 0;
    for (int b = 0; b < static_cast<int>(region_blocks_) &&
                    emitted < cfg_.degree;
         ++b) {
      if (b == offset || (p.pattern & (std::uint64_t{1} << b)) == 0) continue;
      out.push_back((base + static_cast<std::uint64_t>(b)) * block_bytes_);
      ++emitted;
    }
  }

 private:
  static constexpr std::size_t kAccEntries = 64;

  struct AccEntry {
    std::uint64_t region = 0;
    std::uint64_t pattern = 0;
    std::uint64_t trigger = 0;
    bool valid = false;
  };
  struct PhtEntry {
    std::uint64_t trigger = 0;
    std::uint64_t pattern = 0;
    bool valid = false;
  };

  [[nodiscard]] static std::uint64_t trigger_key(std::int32_t pc,
                                                 int offset) noexcept {
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(pc < 0 ? 0 : pc))
            << 6) ^
           static_cast<std::uint64_t>(offset);
  }

  void commit(const AccEntry& a) {
    PhtEntry& p = pht_[mix(a.trigger) & (kTableEntries - 1)];
    p.valid = true;
    p.trigger = a.trigger;
    p.pattern = a.pattern;
  }

  PrefetchConfig cfg_;
  std::uint64_t block_bytes_;
  std::uint64_t region_blocks_;
  std::array<AccEntry, kAccEntries> acc_{};
  std::array<PhtEntry, kTableEntries> pht_{};
};

// Canonical spec spelling of a kind, and its inverse.
const char* prefetch_kind_name(PrefetchKind k) noexcept {
  switch (k) {
    case PrefetchKind::None: return "none";
    case PrefetchKind::IpStride: return "ipstride";
    case PrefetchKind::Sms: return "sms";
  }
  return "?";
}

std::optional<PrefetchKind> parse_prefetch_kind(
    std::string_view name) noexcept {
  for (const auto k :
       {PrefetchKind::None, PrefetchKind::IpStride, PrefetchKind::Sms})
    if (name == prefetch_kind_name(k)) return k;
  if (name == "off") return PrefetchKind::None;
  return std::nullopt;
}

// "deg4" -> ("deg", 4).  Throws on a malformed numeric suffix.
int spec_number(std::string_view token, std::size_t prefix_len) {
  const std::string digits(token.substr(prefix_len));
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(digits, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != digits.size() || digits.empty())
    throw std::invalid_argument("prefetch spec: bad number in '" +
                                std::string(token) + "'");
  return v;
}

}  // namespace

std::string prefetch_spec(const PrefetchConfig& cfg) {
  std::string s = prefetch_kind_name(cfg.kind);
  if (cfg.kind == PrefetchKind::None) return s;
  const PrefetchConfig def;
  if (cfg.degree != def.degree) s += ":deg" + std::to_string(cfg.degree);
  if (cfg.kind == PrefetchKind::IpStride && cfg.distance != def.distance)
    s += ":dist" + std::to_string(cfg.distance);
  if (cfg.kind == PrefetchKind::Sms &&
      cfg.sms_region_blocks != def.sms_region_blocks)
    s += ":region" + std::to_string(cfg.sms_region_blocks);
  return s;
}

PrefetchConfig parse_prefetch_spec(std::string_view spec) {
  PrefetchConfig cfg;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= spec.size()) {
    const auto colon = spec.find(':', pos);
    const std::string_view token =
        spec.substr(pos, colon == std::string_view::npos ? std::string_view::npos
                                                         : colon - pos);
    pos = colon == std::string_view::npos ? spec.size() + 1 : colon + 1;
    if (first) {
      const auto kind = parse_prefetch_kind(token);
      if (!kind)
        throw std::invalid_argument("prefetch spec: unknown kind '" +
                                    std::string(token) +
                                    "' (kinds: none, ipstride, sms)");
      cfg.kind = *kind;
      first = false;
      continue;
    }
    if (token.empty())
      throw std::invalid_argument("prefetch spec: empty token");
    // Each kind takes only the knobs it reads, so one simulation has one
    // spelling.
    const bool ip = cfg.kind == PrefetchKind::IpStride;
    const bool sms = cfg.kind == PrefetchKind::Sms;
    if ((ip || sms) && token.starts_with("deg"))
      cfg.degree = spec_number(token, 3);
    else if (ip && token.starts_with("dist"))
      cfg.distance = spec_number(token, 4);
    else if (sms && token.starts_with("region"))
      cfg.sms_region_blocks = spec_number(token, 6);
    else
      throw std::invalid_argument(
          "prefetch spec: unknown token '" + std::string(token) + "' for " +
          prefetch_kind_name(cfg.kind) +
          (ip    ? " (tokens: degN, distN)"
           : sms ? " (tokens: degN, regionN)"
                 : " (takes no tokens)"));
  }
  // Validate eagerly so a bad --override fails at parse time, not when the
  // first cell builds its machine.
  (void)make_prefetcher(cfg, 32);
  return cfg;
}

std::unique_ptr<Prefetcher> make_prefetcher(const PrefetchConfig& cfg,
                                            int block_bytes) {
  if (cfg.kind == PrefetchKind::None) return nullptr;
  if (cfg.degree <= 0 || cfg.degree > 64)
    throw std::invalid_argument("prefetcher: degree must be in [1, 64]");
  if (cfg.distance <= 0 || cfg.distance > 4096)
    throw std::invalid_argument("prefetcher: distance must be in [1, 4096]");
  if (!power_of_two(cfg.sms_region_blocks) || cfg.sms_region_blocks > 64)
    throw std::invalid_argument(
        "prefetcher: sms_region_blocks must be a power of two <= 64");
  switch (cfg.kind) {
    case PrefetchKind::IpStride:
      return std::make_unique<IpStridePrefetcher>(cfg, block_bytes);
    case PrefetchKind::Sms:
      return std::make_unique<SmsPrefetcher>(cfg, block_bytes);
    case PrefetchKind::None: break;
  }
  return nullptr;
}

}  // namespace hidisc::mem
