#include "compiler/cmas.hpp"

#include <algorithm>
#include <bitset>
#include <numeric>

#include "compiler/pfg.hpp"

namespace hidisc::compiler {

namespace {

// Instructions eligible for a CMAS slice: anything the CMP can execute
// without architectural side effects.
bool cmas_eligible(const isa::Instruction& inst) {
  if (isa::is_store(inst.op) || isa::is_control(inst.op)) return false;
  if (isa::is_fp_compute(inst.op)) return false;
  if (isa::is_queue_op(inst.op)) return false;
  if (inst.op == isa::Opcode::HALT) return false;
  return true;
}

}  // namespace

std::vector<std::int32_t> backward_slice(const isa::Program& prog,
                                         std::int32_t target) {
  const auto n = prog.code.size();
  std::vector<DefUse> du;
  du.reserve(n);
  for (const auto& inst : prog.code)
    du.push_back(ProgramFlowGraph::extract_def_use(inst));

  std::vector<bool> in_slice(n, false);
  in_slice[target] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    std::bitset<isa::kNumArchRegs> slice_reads;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_slice[i]) continue;
      if (du[i].use[0] >= 0) slice_reads.set(du[i].use[0]);
      if (du[i].use[1] >= 0 && !du[i].use2_is_store_data)
        slice_reads.set(du[i].use[1]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (in_slice[i] || du[i].def < 0) continue;
      if (!cmas_eligible(prog.code[i])) continue;
      if (slice_reads.test(du[i].def)) {
        in_slice[i] = true;
        changed = true;
      }
    }
  }
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < n; ++i)
    if (in_slice[i]) out.push_back(static_cast<std::int32_t>(i));
  return out;
}

std::vector<CmasGroup> extract_cmas(isa::Program& prog,
                                    const ProfileObserver& profile,
                                    const CmasOptions& opt) {
  const auto targets = profile.profile().probable_miss_instructions(
      opt.miss_rate_threshold, opt.min_misses);

  // Slice each target, then merge slices that share any instruction
  // (union-find over targets keyed by instruction membership).
  const auto n = prog.code.size();
  // Registers that carry floating-point-derived values anywhere in the
  // program: a slice reading one of them computes addresses the CMP (no FP
  // units, paper Table 1) could not derive, so such groups are dropped —
  // these are the prefetch-resistant loads (e.g. the ray tracer's cells).
  std::bitset<isa::kNumArchRegs> fp_derived;
  for (const auto& inst : prog.code) {
    if (!isa::is_fp_compute(inst.op)) continue;
    const auto du = ProgramFlowGraph::extract_def_use(inst);
    if (du.def >= 0) fp_derived.set(du.def);
  }
  const auto slice_computable = [&](const std::vector<std::int32_t>& slice) {
    for (const auto m : slice) {
      const auto du = ProgramFlowGraph::extract_def_use(prog.code[m]);
      for (const int u : {du.use[0], du.use[1]})
        if (u >= 0 && fp_derived.test(u)) return false;
    }
    return true;
  };

  std::vector<std::vector<std::int32_t>> slices;
  slices.reserve(targets.size());
  for (const auto t : targets) {
    // Only loads can be prefetched; stores that miss are handled by the
    // write buffer and are not CMAS material.
    if (!isa::is_load(prog.code[t].op)) {
      slices.emplace_back();
      continue;
    }
    auto slice = backward_slice(prog, t);
    if (!slice_computable(slice)) slice.clear();
    slices.push_back(std::move(slice));
  }

  std::vector<int> parent(targets.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<int> owner(n, -1);  // instruction -> first owning target
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (const auto m : slices[t]) {
      if (owner[m] < 0) {
        owner[m] = static_cast<int>(t);
      } else {
        parent[find(static_cast<int>(t))] = find(owner[m]);
      }
    }
  }

  // Build merged groups.
  std::vector<CmasGroup> groups;
  std::vector<int> group_of_root(targets.size(), -1);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (slices[t].empty()) continue;
    const int root = find(static_cast<int>(t));
    int gid = group_of_root[root];
    if (gid < 0) {
      gid = static_cast<int>(groups.size());
      group_of_root[root] = gid;
      groups.push_back(CmasGroup{static_cast<std::int16_t>(gid), {}, {}, -1});
    }
    auto& g = groups[gid];
    g.targets.push_back(targets[t]);
    g.members.insert(g.members.end(), slices[t].begin(), slices[t].end());
  }
  for (auto& g : groups) {
    std::sort(g.members.begin(), g.members.end());
    g.members.erase(std::unique(g.members.begin(), g.members.end()),
                    g.members.end());
    std::sort(g.targets.begin(), g.targets.end());
  }

  // Annotate membership and select triggers.
  for (auto& g : groups) {
    std::bitset<isa::kNumArchRegs> group_reads;
    for (const auto m : g.members) {
      const auto du = ProgramFlowGraph::extract_def_use(prog.code[m]);
      if (du.use[0] >= 0) group_reads.set(du.use[0]);
      if (du.use[1] >= 0) group_reads.set(du.use[1]);
    }
    for (const auto m : g.members) {
      auto& ann = prog.code[m].ann;
      ann.in_cmas = true;
      ann.cmas_group = g.id;
      // Loads whose value feeds the slice itself (pointer chasing) must be
      // waited on by the CMP; all others are fire-and-forget prefetches.
      if (isa::is_load(prog.code[m].op) && prog.code[m].dst.valid() &&
          group_reads.test(prog.code[m].dst.flat()))
        ann.cmas_value_live = true;
    }
    g.trigger = profile.select_trigger(g.targets);
    if (g.trigger >= 0) {
      auto& ann = prog.code[g.trigger].ann;
      if (!ann.is_trigger) {  // first group wins on trigger conflicts
        ann.is_trigger = true;
        ann.trigger_group = g.id;
      } else {
        g.trigger = -1;  // conflict: this group ends up untriggered
      }
    }
  }
  return groups;
}

}  // namespace hidisc::compiler
