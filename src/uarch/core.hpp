// RUU-style out-of-order core model (sim-outorder lineage).
//
// One `OoOCore` models any of the paper's processors: the 8-issue
// superscalar baseline, the Computation Processor (window 16, FP units, no
// load/store unit), the Access Processor (window 64, integer + LSU), or the
// Cache Management Processor (integer + LSU, prefetch-only semantics).
//
// The core consumes `DynOp`s from its input instruction queue (the paper's
// Computation / Access Instruction Queues), dispatches them in order into a
// scheduling window, issues oldest-first when operands, functional units,
// memory ports and architectural queues allow, and commits in order.
// Producer-consumer timing between cores flows exclusively through
// `TimedFifo`s, exactly like the paper's LDQ/SDQ/SCQ.
//
// Issue follows sim-outorder: an entry waits on its producers' tags, and
// each cycle the walk visits only the unissued entries whose producers have
// all issued, oldest first, checking every other gate until `issue_width`
// ops issued.  The window's only index is a set of 64-bit ring-slot masks
// (hence `window` <= 64): unissued entries, entries still waiting on an
// unissued producer, stores, entries whose queue write has not drained, and
// per slot the consumers its entry will wake when it issues.  Issue, store
// disambiguation and queue writes all walk a mask oldest first; each entry
// accumulates its source-ready cycle as its producers issue.  The
// event-skip frontier is a plain min over the ring's complete_cycle stamps
// and the pools' busy-until arrays — see docs/MACHINE.md "Hot-path data
// structures".  `debug_check_invariants` recomputes all of this state by
// brute force and throws on disagreement; the randomized scheduler tests
// call it each step.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "diag/deadlock.hpp"
#include "mem/memory_system.hpp"
#include "uarch/dyn_op.hpp"
#include "uarch/fu_pool.hpp"
#include "uarch/static_op.hpp"
#include "uarch/timed_fifo.hpp"

namespace hidisc::uarch {

// Architectural-queue reads per cycle per queue.  The paper's machine
// names $LDQ as a register operand (Figure 6: "mul.d $f4, $LDQ, $LDQ"
// consumes two entries in one instruction), so several queue entries per
// cycle must be consumable.
inline constexpr int kQueuePopsPerCycle = 4;

struct CoreConfig {
  const char* name = "core";
  int window = 64;         // scheduling window (RUU) entries
  int issue_width = 8;
  int commit_width = 8;
  int dispatch_width = 8;  // input queue -> window per cycle
  int input_queue = 64;    // CIQ / AIQ / fetch-buffer capacity
  int lsq = 32;            // max memory ops resident in the window
  int int_alu = 4;
  int int_muldiv = 1;
  int fp_alu = 4;          // 0 => no FP capability
  int fp_muldiv = 1;
  int mem_ports = 2;
  bool has_lsu = true;
  bool prefetch_only = false;  // CMP: loads probe/fill caches only
  // Prefetch-only cores: cap on concurrent fire-and-forget fills (the
  // precomputation engine's prefetch buffer, cf. DGP).  Bounds how much
  // miss bandwidth the CMP can sustain.
  int prefetch_buffer = 8;
};

struct CoreStats {
  std::uint64_t committed = 0;      // architecturally counted commits
  std::uint64_t committed_all = 0;  // including CMP slice micro-ops
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t forwarded_loads = 0;
  std::uint64_t window_full_stalls = 0;
  std::uint64_t lsq_full_stalls = 0;  // dispatch blocked: LSQ share exhausted
  std::uint64_t queue_full_commit_stalls = 0;
  std::uint64_t head_pop_empty_stalls = 0;  // oldest op waiting on empty FIFO
  std::uint64_t lod_stalls = 0;  // oldest op waiting on SDQ: loss of decoupling
  std::uint64_t busy_cycles = 0; // cycles with at least one op in flight

  friend bool operator==(const CoreStats&, const CoreStats&) = default;
};

// A branch whose redirect the front end is waiting on.
struct ResolvedBranch {
  std::int64_t trace_pos = -1;
  std::uint64_t resolve_cycle = 0;
};

class OoOCore {
 public:
  struct Queues {
    TimedFifo* ldq = nullptr;
    TimedFifo* sdq = nullptr;
    TimedFifo* scq = nullptr;
  };

  // `table` must cover every static_idx the core will see and outlive the
  // core.
  OoOCore(const CoreConfig& cfg, mem::MemorySystem* memsys, Queues queues,
          const StaticOpTable& table);

  // Front-end interface -----------------------------------------------------
  [[nodiscard]] bool input_full() const noexcept {
    return input_count_ >= static_cast<std::size_t>(cfg_.input_queue);
  }
  // False (and no effect) when the input queue is full.
  bool enqueue(const DynOp& op) {
    if (input_full()) return false;
    input_slots_[(input_head_ + input_count_) & input_mask_] = op;
    ++input_count_;
    return true;
  }

  // Advances one cycle: commit, then issue, then dispatch.  Returns true
  // when the core changed state (committed, pushed, issued or dispatched
  // anything) — the event-skip scheduler's "this core is active" signal.
  bool tick(std::uint64_t now);

  // True when no work remains anywhere in the core.
  [[nodiscard]] bool drained() const noexcept {
    return input_count_ == 0 && window_count_ == 0;
  }

  // Event-skip scheduler interface --------------------------------------
  //
  // Earliest cycle strictly after `now` at which this core's own state
  // could change without external input: an issued entry completing, a
  // functional unit freeing, or a fire-and-forget prefetch fill vacating a
  // prefetch-buffer slot.  Cross-core wake-ups (queue
  // pushes/pops, new front-end input) are events of the *other* party and
  // are folded in by the machine.  kNoEvent when nothing self-scheduled
  // remains.
  [[nodiscard]] std::uint64_t next_event_cycle(std::uint64_t now) const;

  // Accounts `delta` cycles during which the machine fast-forwarded time
  // past this core while it was provably unable to change state ("frozen"
  // at the state observed at cycle `now`).  Replays exactly the per-cycle
  // stall counters a lock-stepped tick would have accrued at each skipped
  // cycle, so results stay bit-identical with the cycle-by-cycle
  // scheduler.
  void account_idle_cycles(std::uint64_t now, std::uint64_t delta);

  // Mispredicted branches that reached resolution since the last clear;
  // clearing keeps the buffer, so resolutions never allocate once warm.
  [[nodiscard]] const std::vector<ResolvedBranch>& resolved_branches() const
      noexcept {
    return resolved_;
  }
  void clear_resolved_branches() noexcept { resolved_.clear(); }
  [[nodiscard]] bool has_resolved() const noexcept {
    return !resolved_.empty();
  }

  [[nodiscard]] const CoreConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const CoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t window_occupancy() const noexcept {
    return window_count_;
  }
  [[nodiscard]] std::size_t input_occupancy() const noexcept {
    return input_count_;
  }

  // Issue-walk telemetry: how much host work the walk did, not anything
  // the simulated machine did, so it stays out of CoreStats.
  struct IssueCensus {
    std::uint64_t calls = 0;   // do_issue passes
    std::uint64_t visits = 0;  // window entries the passes looked at
    std::uint64_t issued = 0;  // ops they issued
  };
  [[nodiscard]] const IssueCensus& issue_census() const noexcept {
    return census_;
  }

  // Forensics: why the oldest op in the core cannot move at `now`.
  // Walks the same gates as do_commit / do_issue, without mutating
  // anything.  `valid` is false when the core is drained.
  struct StallProbe {
    bool valid = false;
    diag::StallWhy why = diag::StallWhy::None;
    std::string op;                    // mnemonic of the oldest op
    std::int32_t static_idx = -1;
    std::int64_t trace_pos = -1;
    const TimedFifo* queue = nullptr;  // involved queue on pop/push stalls
  };
  [[nodiscard]] StallProbe probe_oldest_stall(std::uint64_t now) const;

  // Recomputes every incremental frontier (completion min, unissued,
  // blocked and consumer masks, producer wait counts, source-ready cycles,
  // store and unpushed masks, mem-op count) by brute-force window scan and
  // throws std::logic_error on any disagreement.  Test-only: the
  // randomized invariant tests call it after every tick.
  void debug_check_invariants(std::uint64_t now) const;

 private:
  // One window (RUU) entry.  Hot issue/complete fields first; the decoded
  // StaticOp is copied in by value, since the issue path reads it on every
  // visit and a pointer into the table measured slower.
  struct Entry {
    StaticOp so;
    std::uint64_t seq = 0;
    // Producer tracking: seq of in-window producer (0 = value already
    // available) per source operand.
    std::uint64_t src_seq[2] = {0, 0};
    // kNoEvent until the entry issues.
    std::uint64_t complete_cycle = 0;
    TimedFifo* pop_queue = nullptr;   // null = no queue pop
    TimedFifo* push_queue = nullptr;  // queue written at completion
    bool forwarded = false;  // load satisfied by an older in-window store
    // Distinct in-window producers that have not issued yet (0-2); the
    // entry's blocked_ bit is set while this is non-zero.
    std::uint8_t waits = 0;
    // The latest complete_cycle of the producers that have issued: once
    // `waits` is 0, the cycle from which every source operand is available.
    std::uint64_t src_ready = 0;
    DynOp op;
  };

  // The window lives in a power-of-two ring (`slots_`), so resolving a seq
  // to its entry — the single hottest operation of the issue path — is two
  // adds and a mask, not a deque block walk.
  [[nodiscard]] const Entry* find_by_seq(std::uint64_t seq) const noexcept {
    const auto idx = seq - base_seq_;  // wraps huge for committed seqs
    if (idx >= window_count_) return nullptr;
    return &slots_[(window_head_ + idx) & window_mask_];
  }
  [[nodiscard]] Entry* find_by_seq(std::uint64_t seq) noexcept {
    const auto idx = seq - base_seq_;
    if (idx >= window_count_) return nullptr;
    return &slots_[(window_head_ + idx) & window_mask_];
  }
  // Entry at window position `i` (0 = oldest).
  [[nodiscard]] const Entry& window_at(std::size_t i) const noexcept {
    return slots_[(window_head_ + i) & window_mask_];
  }
  [[nodiscard]] Entry& window_at(std::size_t i) noexcept {
    return slots_[(window_head_ + i) & window_mask_];
  }
  // A ring-slot mask (bit s = ring slot s) re-indexed by window position:
  // bit i set = window position i (0 = oldest) is set in `mask`.
  [[nodiscard]] std::uint64_t by_age(std::uint64_t mask) const noexcept {
    if (window_head_ == 0) return mask;
    const auto n = slots_.size();
    const auto m = (mask >> window_head_) | (mask << (n - window_head_));
    return n == 64 ? m : m & ((std::uint64_t{1} << n) - 1);
  }
  [[nodiscard]] std::uint64_t slot_bit(const Entry& e) const noexcept {
    return std::uint64_t{1} << (&e - slots_.data());
  }
  // The latest in-window producer's complete_cycle — kNoEvent while one of
  // them is unissued: `e`'s sources are ready at `now` iff this is <= now.
  // Recomputed from the producers themselves, for the paths off the issue
  // walk (idle-cycle accounting and the stall probe).
  [[nodiscard]] std::uint64_t source_ready_cycle(const Entry& e) const
      noexcept {
    std::uint64_t at = 0;
    for (const auto seq : e.src_seq) {
      if (seq == 0) continue;
      const Entry* p = find_by_seq(seq);
      if (p == nullptr) continue;  // producer committed: value architectural
      at = std::max(at, p->complete_cycle);
    }
    return at;
  }
  [[nodiscard]] static bool completed(const Entry& e,
                                      std::uint64_t now) noexcept {
    return e.complete_cycle <= now;
  }
  // `e` has a queue write that has not drained yet.
  [[nodiscard]] bool write_pending(const Entry& e) const noexcept {
    return (unpushed_ & slot_bit(e)) != 0;
  }
  void do_commit(std::uint64_t now);
  void do_pushes(std::uint64_t now);
  void do_issue(std::uint64_t now);
  void do_dispatch();
  void issue_one(Entry& e, std::uint64_t now);
  [[nodiscard]] TimedFifo* queue_ptr(QueueRole role) const noexcept;
  // Index of a queue's per-cycle order state in do_issue and do_pushes.
  [[nodiscard]] int queue_slot(const TimedFifo* q) const noexcept {
    return q == queues_.ldq ? 0 : q == queues_.sdq ? 1 : 2;
  }
  // Memory disambiguation: whether the load at window position `pos` and
  // 8-byte `line` must wait for an older incomplete store to its line, and
  // whether a completed older store forwards to it.
  struct Disambiguation {
    bool wait = false;
    bool forward = false;
  };
  [[nodiscard]] Disambiguation check_older_stores(std::uint64_t line,
                                                  std::size_t pos,
                                                  std::uint64_t now) const;
  // Earliest complete_cycle strictly after `now` over the ring (kNoEvent
  // when none).  Free and unissued slots never lower it: an unissued slot
  // holds kNoEvent, and a slot is freed only by commit, which requires
  // completion.
  [[nodiscard]] std::uint64_t next_completion(std::uint64_t now) const
      noexcept;

  CoreConfig cfg_;
  mem::MemorySystem* memsys_;
  Queues queues_;
  const StaticOpTable& table_;

  // Input queue as a fixed ring (size = cfg_.input_queue rounded up to a
  // power of two, allocated once) — enqueue/front/pop are index math, no
  // deque block management on the per-instruction path.
  std::vector<DynOp> input_slots_;
  std::size_t input_head_ = 0;
  std::size_t input_count_ = 0;
  std::size_t input_mask_ = 0;
  [[nodiscard]] const DynOp& input_front() const noexcept {
    return input_slots_[input_head_];
  }
  void input_pop() noexcept {
    input_head_ = (input_head_ + 1) & input_mask_;
    --input_count_;
  }
  // Scheduling window as a ring over `slots_` (size = cfg_.window rounded
  // up to a power of two, allocated once): front at window_head_,
  // window_count_ live entries, seqs contiguous from base_seq_.
  std::vector<Entry> slots_;
  std::size_t window_head_ = 0;
  std::size_t window_count_ = 0;
  std::size_t window_mask_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t base_seq_ = 1;  // seq of the oldest window entry
  int mem_ops_in_window_ = 0;

  // Per architectural register: seq of the most recent in-flight writer
  // (0 when the committed register file already holds the value).
  std::vector<std::uint64_t> last_writer_;

  // Functional units, indexed by PoolKind; the None slot has no units and
  // is never asked for one.
  std::array<FuPool, kNumPoolKinds> pools_;
  // Prefetch-only cores: one unit per in-flight fire-and-forget fill, busy
  // until the fill lands.
  FuPool prefetch_buf_;

  // Ring-slot masks (all invariants in docs/MACHINE.md) ------------------
  //
  // Bit s set = ring slot s holds an in-window entry that is unissued /
  // waiting on an unissued producer / a store / waiting to write its queue.
  std::uint64_t unissued_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t unpushed_ = 0;
  // Per ring slot: the consumers that wait on the slot's entry, woken and
  // cleared when it issues (zero for free and issued slots).
  std::array<std::uint64_t, 64> consumers_{};

  CoreStats stats_;
  IssueCensus census_;
  std::vector<ResolvedBranch> resolved_;
  bool progress_ = false;  // state changed during the current tick
};

}  // namespace hidisc::uarch
