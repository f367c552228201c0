#include "compiler/slicer.hpp"

#include <bitset>
#include <stdexcept>

#include "compiler/pfg.hpp"

namespace hidisc::compiler {

using isa::Annotation;
using isa::Instruction;
using isa::Opcode;
using isa::Stream;

namespace {

using RegSet = std::bitset<isa::kNumArchRegs>;

void check_clean_input(const isa::Program& prog) {
  for (const auto& inst : prog.code) {
    if (isa::is_queue_op(inst.op))
      throw std::invalid_argument(
          "separate_streams: input already contains queue opcodes");
    if (!(inst.ann == Annotation{}) &&
        !(inst.ann.in_cmas || inst.ann.is_trigger))
      throw std::invalid_argument(
          "separate_streams: input already carries stream annotations");
  }
}

// True when `inst` must seed the Access Stream.
bool is_seed(const Instruction& inst) {
  return isa::is_mem(inst.op) || isa::is_control(inst.op) ||
         inst.op == Opcode::HALT;
}

}  // namespace

std::vector<bool> access_stream_membership(const isa::Program& prog) {
  const auto n = prog.code.size();
  std::vector<bool> in_as(n, false);
  std::vector<DefUse> du;
  du.reserve(n);
  for (const auto& inst : prog.code)
    du.push_back(ProgramFlowGraph::extract_def_use(inst));

  for (std::size_t i = 0; i < n; ++i)
    if (is_seed(prog.code[i])) in_as[i] = true;

  // Fixpoint: registers consumed by the AS pull their producers into the
  // AS, except floating-point compute (the AP has only integer and
  // load/store units, Table 1).  Store-data operands are chased like any
  // other: an integer value stored by the AP is AP business end to end;
  // only FP-produced store data stays on the CP and crosses via the SDQ —
  // exactly the paper's Figure 5 example, where "s.d $SDQ" receives the
  // result of an FP multiply-add chain.
  bool changed = true;
  while (changed) {
    changed = false;
    RegSet as_reads;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_as[i]) continue;
      if (du[i].use[0] >= 0) as_reads.set(du[i].use[0]);
      if (du[i].use[1] >= 0) as_reads.set(du[i].use[1]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (in_as[i] || du[i].def < 0) continue;
      if (isa::is_fp_compute(prog.code[i].op)) continue;
      if (as_reads.test(du[i].def)) {
        in_as[i] = true;
        changed = true;
      }
    }
  }
  return in_as;
}

namespace {

Instruction make_pop(Opcode op, isa::Reg dst, Stream stream) {
  Instruction pop;
  pop.op = op;
  pop.dst = dst;
  pop.ann.stream = stream;
  pop.ann.compiler_inserted = true;
  return pop;
}

Instruction make_push(Opcode op, isa::Reg src, Stream stream) {
  Instruction push;
  push.op = op;
  push.src1 = src;
  push.ann.stream = stream;
  push.ann.compiler_inserted = true;
  return push;
}

// Instruction-level successor set; conservative for indirect jumps (jr /
// jalr may go anywhere a call returns, so callers treat them as "reaches
// everything").
void successors(const isa::Program& prog, std::int32_t i,
                std::vector<std::int32_t>& out, bool& indirect) {
  out.clear();
  indirect = false;
  const auto& inst = prog.code[i];
  const auto n = static_cast<std::int32_t>(prog.code.size());
  switch (inst.info().cls) {
    case isa::OpClass::Jump:
      if (inst.op == Opcode::J || inst.op == Opcode::JAL) {
        if (inst.target >= 0 && inst.target < n) out.push_back(inst.target);
      } else {
        indirect = true;
      }
      return;
    case isa::OpClass::Halt:
      return;
    case isa::OpClass::Branch:
      if (inst.target >= 0 && inst.target < n) out.push_back(inst.target);
      if (i + 1 < n) out.push_back(i + 1);
      return;
    default:
      if (inst.op == Opcode::BEOD && inst.target >= 0 && inst.target < n)
        out.push_back(inst.target);
      if (i + 1 < n) out.push_back(i + 1);
      return;
  }
}

// True when some instruction of stream `target` reading register `flat`
// is reachable from (after) instruction `from` without an intervening
// redefinition of `flat`.  Reads are checked before kills (an instruction
// reads its sources before writing its destination).
bool reaches_cross_use(const isa::Program& prog,
                       const std::vector<DefUse>& du,
                       const std::vector<bool>& in_as, std::int32_t from,
                       int flat, bool target_is_as) {
  const auto n = prog.code.size();
  std::vector<bool> visited(n, false);
  std::vector<std::int32_t> stack;
  std::vector<std::int32_t> succ;
  bool indirect = false;
  successors(prog, from, succ, indirect);
  if (indirect) return true;  // conservative
  for (const auto s : succ) stack.push_back(s);
  while (!stack.empty()) {
    const auto i = stack.back();
    stack.pop_back();
    if (visited[i]) continue;
    visited[i] = true;
    const bool is_as = in_as[i];
    for (const int u : {du[i].use[0], du[i].use[1]})
      if (u == flat && is_as == target_is_as) return true;
    if (du[i].def == flat) continue;  // killed past this point
    successors(prog, i, succ, indirect);
    if (indirect) return true;
    for (const auto s : succ)
      if (!visited[s]) stack.push_back(s);
  }
  return false;
}

}  // namespace

SeparationResult separate_streams(const isa::Program& prog,
                                  const CacheProfile* profile,
                                  bool flow_sensitive) {
  check_clean_input(prog);
  SeparationResult out;
  const auto n = static_cast<std::int32_t>(prog.code.size());
  const std::vector<bool> in_as = access_stream_membership(prog);

  std::vector<DefUse> du;
  du.reserve(n);
  for (const auto& inst : prog.code)
    du.push_back(ProgramFlowGraph::extract_def_use(inst));

  // Dynamic execution counts (falling back to 1 per static instruction).
  std::vector<std::uint64_t> dyn(n, 1);
  if (profile != nullptr)
    for (std::int32_t i = 0; i < n; ++i)
      dyn[i] = profile->per_instr[i].executions;

  // Per-register facts.  Store-data counts as an AS read (the AP executes
  // the store, so the value must reach the AP).
  struct RegFacts {
    bool as_def = false, cs_def = false;
    bool as_read = false, cs_read = false;
    std::uint64_t dyn_as_defs = 0, dyn_cs_defs = 0;
    std::uint64_t dyn_as_reads = 0, dyn_cs_reads = 0;
  };
  std::vector<RegFacts> facts(isa::kNumArchRegs);
  for (std::int32_t i = 0; i < n; ++i) {
    const bool as = in_as[i];
    if (du[i].def >= 0) {
      auto& f = facts[du[i].def];
      (as ? f.as_def : f.cs_def) = true;
      (as ? f.dyn_as_defs : f.dyn_cs_defs) += dyn[i];
    }
    for (const int u : {du[i].use[0], du[i].use[1]}) {
      if (u < 0) continue;
      auto& f = facts[u];
      (as ? f.as_read : f.cs_read) = true;
      (as ? f.dyn_as_reads : f.dyn_cs_reads) += dyn[i];
    }
  }

  // Site decision per register and direction.  Consumer-site requires all
  // definitions to live in the producing stream (otherwise the consumer's
  // shadow copy could be stale on some path) and pays off when the profile
  // shows more definitions than cross-stream reads.
  RegSet consumer_site_ldq, consumer_site_sdq;
  for (int r = 0; r < isa::kNumArchRegs; ++r) {
    const auto& f = facts[r];
    if (f.as_def && f.cs_read && !f.cs_def &&
        f.dyn_as_defs > f.dyn_cs_reads) {
      consumer_site_ldq.set(r);
      ++out.consumer_site_regs;
    }
    if (f.cs_def && f.as_read && !f.as_def &&
        f.dyn_cs_defs > f.dyn_as_reads) {
      consumer_site_sdq.set(r);
      ++out.consumer_site_regs;
    }
  }

  out.stream_of_original.resize(n);
  out.separated = prog;

  // Decide all insertions against original indices first.
  struct ProducerPop {
    std::int32_t after;  // original index of the producer
    Instruction pop;
  };
  struct ConsumerPair {
    std::int32_t before;  // original index of the consumer
    Instruction push;
    Instruction pop;
  };
  std::vector<ProducerPop> producer_pops;
  std::vector<ConsumerPair> consumer_pairs;

  for (std::int32_t i = 0; i < n; ++i) {
    Instruction& inst = out.separated.code[i];
    const Stream s = in_as[i] ? Stream::Access : Stream::Compute;
    inst.ann.stream = s;
    out.stream_of_original[i] = s;
    if (in_as[i]) ++out.access_count; else ++out.compute_count;

    // Producer-site communication for this instruction's definition.
    // The flow-sensitive refinement only transfers when a cross-stream
    // read is actually reachable from this definition — safe for FIFO
    // pairing because any execution reaching a cross read passed through
    // a pushing definition last.
    if (du[i].def >= 0) {
      const auto& f = facts[du[i].def];
      const bool fp = inst.dst.is_fp();
      if (in_as[i] && f.cs_read && !consumer_site_ldq.test(du[i].def)) {
        if (!flow_sensitive ||
            reaches_cross_use(prog, du, in_as, i, du[i].def,
                              /*target_is_as=*/false)) {
          inst.ann.push_ldq = true;
          producer_pops.push_back(
              {i, make_pop(fp ? Opcode::POPLDQF : Opcode::POPLDQ, inst.dst,
                           Stream::Compute)});
        } else {
          ++out.pruned_transfers;
        }
      } else if (!in_as[i] && f.as_read &&
                 !consumer_site_sdq.test(du[i].def)) {
        if (!flow_sensitive ||
            reaches_cross_use(prog, du, in_as, i, du[i].def,
                              /*target_is_as=*/true)) {
          inst.ann.push_sdq = true;
          producer_pops.push_back(
              {i, make_pop(fp ? Opcode::POPSDQF : Opcode::POPSDQ, inst.dst,
                           Stream::Access)});
        } else {
          ++out.pruned_transfers;
        }
      }
    }

    // Consumer-site communication for this instruction's cross reads.
    int handled[2] = {-1, -1};
    const isa::Reg srcs[2] = {inst.info().reads_src1 ? inst.src1
                                                     : isa::no_reg(),
                              inst.info().reads_src2 ? inst.src2
                                                     : isa::no_reg()};
    for (int k = 0; k < 2; ++k) {
      const isa::Reg r = srcs[k];
      if (!r.valid()) continue;
      const int flat = r.flat();
      if (flat == handled[0]) continue;  // both operands, same register
      const bool want =
          in_as[i] ? consumer_site_sdq.test(flat)
                   : consumer_site_ldq.test(flat);
      if (!want) continue;
      handled[k] = flat;
      const bool fp = r.is_fp();
      ConsumerPair pair;
      pair.before = i;
      if (in_as[i]) {  // CS value consumed by the AS: travel via SDQ
        pair.push = make_push(fp ? Opcode::PUSHSDQF : Opcode::PUSHSDQ, r,
                              Stream::Compute);
        pair.pop = make_pop(fp ? Opcode::POPSDQF : Opcode::POPSDQ, r,
                            Stream::Access);
      } else {  // AS value consumed by the CS: travel via LDQ
        pair.push = make_push(fp ? Opcode::PUSHLDQF : Opcode::PUSHLDQ, r,
                              Stream::Access);
        pair.pop = make_pop(fp ? Opcode::POPLDQF : Opcode::POPLDQ, r,
                            Stream::Compute);
      }
      consumer_pairs.push_back(pair);
    }
  }

  // Apply insertions from the highest original index down so earlier
  // anchors stay valid.  For equal anchors the relative order of the
  // after-pop (belongs to instruction i) and before-pair (belongs to the
  // same instruction's reads) is immaterial.
  {
    std::size_t pp = producer_pops.size();
    std::size_t cp = consumer_pairs.size();
    while (pp > 0 || cp > 0) {
      const std::int32_t at_pp =
          pp > 0 ? producer_pops[pp - 1].after : -1;
      const std::int32_t at_cp =
          cp > 0 ? consumer_pairs[cp - 1].before : -1;
      if (at_pp >= at_cp) {
        const auto& p = producer_pops[--pp];
        out.separated.insert_after(p.after, p.pop);
        ++out.inserted_pops;
      } else {
        const auto& c = consumer_pairs[--cp];
        out.separated.insert_before(c.before, c.pop);
        out.separated.insert_before(c.before, c.push);
        ++out.inserted_pops;
      }
    }
  }
  // Rebuild partner maps against final indices: each inserted pop sits
  // immediately after the instruction that feeds its queue — the flagged
  // producer (producer-site) or the inserted PUSH (consumer-site).
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(
                                   out.separated.code.size());
       ++i) {
    const Instruction& inst = out.separated.code[i];
    if (!inst.ann.compiler_inserted) continue;
    if (inst.op == Opcode::POPLDQ || inst.op == Opcode::POPLDQF)
      out.ldq_partner.emplace(i, i - 1);
    else if (inst.op == Opcode::POPSDQ || inst.op == Opcode::POPSDQF)
      out.sdq_partner.emplace(i, i - 1);
  }
  return out;
}

}  // namespace hidisc::compiler
