#include "compiler/profiler.hpp"

namespace hidisc::compiler {

std::vector<std::int32_t> CacheProfile::probable_miss_instructions(
    double min_miss_rate, std::uint64_t min_misses) const {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < per_instr.size(); ++i) {
    const auto& p = per_instr[i];
    if (p.l1_misses >= min_misses && p.miss_rate() >= min_miss_rate)
      out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

ProfileObserver::ProfileObserver(const isa::Program& prog,
                                 const mem::MemConfig& mem_cfg,
                                 int trigger_distance)
    : memsys_(mem_cfg), distance_(trigger_distance) {
  kind_.reserve(prog.code.size());
  for (const auto& inst : prog.code)
    kind_.push_back(isa::is_load(inst.op)    ? Kind::Load
                    : isa::is_store(inst.op) ? Kind::Store
                                             : Kind::Other);
  profile_.per_instr.resize(prog.code.size());
}

void ProfileObserver::observe(std::span<const sim::TraceEntry> chunk) {
  for (const auto& e : chunk) {
    // Profiling uses the instruction count as time.
    const std::uint64_t cycle = ++profile_.dynamic_instructions;
    auto& p = profile_.per_instr[e.static_idx];
    ++p.executions;
    const Kind kind = kind_[e.static_idx];

    // The instruction distance_ back.  The ring fills first (no lookback
    // yet, and never more entries than the run has), then its oldest slot
    // is read and reused.
    std::int32_t earlier = -1;
    if (distance_ == 0) {
      earlier = e.static_idx;
    } else if (distance_ > 0) {
      if (ring_.size() < static_cast<std::size_t>(distance_)) {
        ring_.push_back(e.static_idx);
      } else {
        earlier = ring_[ring_pos_];
        ring_[ring_pos_] = e.static_idx;
        if (++ring_pos_ == ring_.size()) ring_pos_ = 0;
      }
    }
    if (kind == Kind::Other) continue;
    if (kind == Kind::Load && earlier >= 0)
      ++lookback_[static_cast<std::uint64_t>(e.static_idx) << 32 |
                  static_cast<std::uint32_t>(earlier)];

    ++p.mem_accesses;
    const auto type = kind == Kind::Store ? mem::AccessType::Write
                                          : mem::AccessType::Read;
    if (!memsys_.access(e.addr, type, cycle, e.static_idx).l1_hit) {
      ++p.l1_misses;
      ++profile_.total_l1_misses;
    }
  }
}

std::int32_t ProfileObserver::select_trigger(
    const std::vector<std::int32_t>& targets) const {
  std::unordered_map<std::int32_t, std::uint64_t> histogram;
  for (const auto& [pair, count] : lookback_) {
    const auto load = static_cast<std::int32_t>(pair >> 32);
    for (const auto t : targets)
      if (t == load) {
        histogram[static_cast<std::int32_t>(pair & 0xffffffffu)] += count;
        break;
      }
  }
  std::int32_t best = -1;
  std::uint64_t best_count = 0;
  for (const auto& [idx, count] : histogram) {
    if (count > best_count || (count == best_count && idx < best)) {
      best = idx;
      best_count = count;
    }
  }
  return best;
}

ProfileObserver profile_run(const isa::Program& prog,
                            const mem::MemConfig& mem_cfg,
                            int trigger_distance, std::uint64_t max_steps) {
  ProfileObserver obs(prog, mem_cfg, trigger_distance);
  sim::Functional func(prog);
  sim::Trace chunk;
  while (!func.halted()) {
    chunk.clear();
    func.stream_chunk(chunk, max_steps, sim::Functional::kStreamChunk);
    obs.observe(chunk);
  }
  return obs;
}

}  // namespace hidisc::compiler
