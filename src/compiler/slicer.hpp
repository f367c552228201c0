// Stream separation by backward slicing (paper §4.2).
//
// Classifies every instruction into the Access Stream (AS) or the
// Computation Stream (CS) and inserts the queue communications:
//
//  * Seeds: every load, store, prefetch and every control-flow instruction
//    belongs to the AS ("all the control-related instructions are also part
//    of the Access Stream").
//  * Backward chase: any instruction producing a register consumed by an AS
//    instruction joins the AS — transitively — with one barrier:
//    floating-point compute never joins the AS (the AP "has only integer
//    units and load/store units", Table 1).  Values crossing the barrier
//    travel through the queues: FP results consumed by the AS (store data,
//    as in the paper's Figure 5 "s.d $SDQ"; FP-derived addresses) pop the
//    SDQ on the AP — the paper's CP->AP dependence that causes
//    loss-of-decoupling events — and AS values consumed by FP compute are
//    pushed to the LDQ.  Pure-integer reductions are AP business end to
//    end and never cross.
//  * Communication, two placements chosen per register from the profile:
//      - producer-site (default): the defining instruction gets a
//        push_ldq/push_sdq flag and a matching POPLDQ/POPSDQ(dst) is
//        inserted right after it — one transfer per definition;
//      - consumer-site: a PUSH/POP pair is inserted immediately before the
//        consuming instruction — one transfer per consumption.  Chosen when
//        the register's definitions all live in one stream and the dynamic
//        profile shows more definitions than cross-stream reads (e.g. a
//        loop-carried checksum stored once after the loop), where
//        producer-site placement would flood the queue every iteration.
//    Because a single front end fetches one annotated binary (paper
//    Figure 2), pushes and pops execute under the same dynamic control
//    flow and FIFO order pairs them correctly on every path.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "compiler/profiler.hpp"
#include "isa/program.hpp"

namespace hidisc::compiler {

struct SeparationResult {
  isa::Program separated;   // rewritten binary with stream annotations
  // Instruction index in `separated` of each inserted POP -> index of its
  // producer (the instruction carrying the matching push flag).
  std::unordered_map<std::int32_t, std::int32_t> ldq_partner;
  std::unordered_map<std::int32_t, std::int32_t> sdq_partner;
  // Per original-instruction stream decision (index = original position).
  std::vector<isa::Stream> stream_of_original;
  // Counters for reporting.
  std::size_t access_count = 0;
  std::size_t compute_count = 0;
  std::size_t inserted_pops = 0;
  std::size_t consumer_site_regs = 0;  // registers using consumer-site comm
  // Producer-site transfers removed by the flow-sensitive reachability
  // analysis (a definition only pushes when a cross-stream read of its
  // register is reachable without an intervening redefinition).
  std::size_t pruned_transfers = 0;
};

// Computes AS membership only (no rewriting).  Exposed for tests and for
// CMAS extraction, which slices within the Access Stream.
[[nodiscard]] std::vector<bool> access_stream_membership(
    const isa::Program& prog);

// Full separation: annotate streams, choose communication sites, insert
// queue instructions.  The execution counts of `profile` (a profile of
// `prog`) guide the producer- vs consumer-site decision; without it,
// static instruction counts are used.  Throws std::invalid_argument if
// `prog` already contains queue opcodes or stream annotations (the input
// must be a conventional sequential binary).
[[nodiscard]] SeparationResult separate_streams(
    const isa::Program& prog, const CacheProfile* profile = nullptr,
    bool flow_sensitive = true);

}  // namespace hidisc::compiler
