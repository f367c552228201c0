#include "uarch/core.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

namespace hidisc::uarch {

using isa::OpClass;
using isa::Opcode;

namespace {

constexpr std::uint64_t store_line(std::uint64_t addr) noexcept {
  return addr & ~7ull;
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

OoOCore::OoOCore(const CoreConfig& cfg, mem::MemorySystem* memsys,
                 Queues queues, const StaticOpTable& table)
    : cfg_(cfg),
      memsys_(memsys),
      queues_(queues),
      table_(table),
      last_writer_(isa::kNumArchRegs, 0),
      pools_{FuPool(), FuPool(cfg.int_alu), FuPool(cfg.int_muldiv),
             FuPool(cfg.fp_alu), FuPool(cfg.fp_muldiv),
             FuPool(cfg.mem_ports)},
      prefetch_buf_(cfg.prefetch_buffer) {
  if (cfg.window <= 0 || cfg.issue_width <= 0 || cfg.commit_width <= 0)
    throw std::invalid_argument(std::string(cfg.name) +
                                ": non-positive core geometry");
  // The issue walk keeps one bit per ring slot in a 64-bit mask.
  if (cfg.window > 64)
    throw std::invalid_argument(std::string(cfg.name) +
                                ": window larger than 64 entries");
  slots_.resize(pow2_at_least(static_cast<std::size_t>(cfg.window)));
  window_mask_ = slots_.size() - 1;
  input_slots_.resize(
      pow2_at_least(static_cast<std::size_t>(std::max(1, cfg.input_queue))));
  input_mask_ = input_slots_.size() - 1;
}

TimedFifo* OoOCore::queue_ptr(QueueRole role) const noexcept {
  switch (role) {
    case QueueRole::Ldq: return queues_.ldq;
    case QueueRole::Sdq: return queues_.sdq;
    case QueueRole::Scq: return queues_.scq;
    case QueueRole::None: return nullptr;
  }
  return nullptr;
}

bool OoOCore::tick(std::uint64_t now) {
  if (window_count_ != 0 || input_count_ != 0) ++stats_.busy_cycles;
  progress_ = false;
  do_commit(now);
  do_pushes(now);
  do_issue(now);
  do_dispatch();
  return progress_;
}

std::uint64_t OoOCore::next_completion(std::uint64_t now) const noexcept {
  std::uint64_t ev = kNoEvent;
  for (const Entry& e : slots_)
    if (e.complete_cycle > now) ev = std::min(ev, e.complete_cycle);
  return ev;
}

std::uint64_t OoOCore::next_event_cycle(std::uint64_t now) const {
  // Issued-but-incomplete entries cover every time-threshold their
  // completion gates: commit of the head, queue writes draining, consumers'
  // source readiness, and load/store disambiguation waits.  Pool releases
  // cover units freeing, including a full prefetch buffer's earliest fill
  // landing.
  std::uint64_t ev = next_completion(now);
  for (const FuPool& pool : pools_) ev = std::min(ev, pool.next_release(now));
  return std::min(ev, prefetch_buf_.next_release(now));
}

// Mirrors exactly the per-cycle stall counters tick() accrues in a cycle
// where nothing can change: busy time, dispatch blocked on a full window
// or an exhausted LSQ share, commit blocked on an undrained queue write,
// the per-queue full-stall note of do_pushes, and the oldest-op
// empty-queue stalls of do_issue.  Any drift here is caught by the
// HIDISC_LOCKSTEP verification path.
void OoOCore::account_idle_cycles(std::uint64_t now, std::uint64_t delta) {
  if (delta == 0) return;
  if (window_count_ == 0 && input_count_ == 0) return;  // quiescent
  stats_.busy_cycles += delta;

  if (input_count_ != 0) {
    if (window_count_ >= static_cast<std::size_t>(cfg_.window)) {
      stats_.window_full_stalls += delta;
    } else {
      // Window has room yet dispatch was frozen: the head of the input
      // queue must be a memory op blocked on the LSQ share (the only other
      // dispatch gate) — mirror do_dispatch's per-cycle counter.
      const StaticOp& so = table_[input_front().static_idx];
      if ((so.is_load || so.is_store) && mem_ops_in_window_ >= cfg_.lsq)
        stats_.lsq_full_stalls += delta;
    }
  }

  if (window_count_ != 0) {
    const Entry& head = window_at(0);
    if (completed(head, now) && write_pending(head))
      stats_.queue_full_commit_stalls += delta;
  }

  // do_pushes: one full-stall note per queue per cycle, charged when the
  // oldest pending write to that queue is completed but the queue is
  // full.  (An older incomplete write blocks younger ones silently.)
  bool seen[3] = {false, false, false};
  for (auto pending = by_age(unpushed_); pending != 0;
       pending &= pending - 1) {
    const Entry& e =
        window_at(static_cast<std::size_t>(std::countr_zero(pending)));
    bool& oldest = seen[queue_slot(e.push_queue)];
    if (oldest) continue;
    oldest = true;
    if (completed(e, now) && e.push_queue->full())
      e.push_queue->note_full_stalls(delta);
  }

  // do_issue: the oldest un-issued op, when ready but waiting on an empty
  // (or not-yet-ready) architectural queue, counts a head stall per cycle.
  if (const auto pending = by_age(unissued_); pending != 0) {
    const Entry* e = &window_at(static_cast<std::size_t>(
        std::countr_zero(pending)));
    if (source_ready_cycle(*e) <= now && e->pop_queue != nullptr &&
        e->pop_queue->front_ready(now) == nullptr) {
      stats_.head_pop_empty_stalls += delta;
      e->pop_queue->note_empty_stalls(delta);
      if (e->pop_queue == queues_.sdq) stats_.lod_stalls += delta;
    }
  }
}

OoOCore::StallProbe OoOCore::probe_oldest_stall(std::uint64_t now) const {
  StallProbe p;
  if (window_count_ == 0) {
    if (input_count_ == 0) return p;  // drained
    const DynOp& op = input_front();
    p.valid = true;
    p.why = diag::StallWhy::Dispatch;
    p.op = std::string(op.inst->info().name);
    p.static_idx = op.static_idx;
    p.trace_pos = op.trace_pos;
    return p;
  }

  const Entry& head = window_at(0);
  p.valid = true;
  p.op = std::string(head.op.inst->info().name);
  p.static_idx = head.op.static_idx;
  p.trace_pos = head.op.trace_pos;

  if (completed(head, now)) {
    // do_commit's only gate: an undrained queue write.
    if (write_pending(head)) {
      p.why = diag::StallWhy::PushFull;
      p.queue = head.push_queue;
    }
    return p;
  }
  if (head.complete_cycle != kNoEvent) {  // issued
    p.why = diag::StallWhy::InFlight;
    return p;
  }

  // Un-issued head: do_issue's gates, in order.  The head has no older
  // in-window producers, but keep the check for completeness.
  if (source_ready_cycle(head) > now) {
    p.why = diag::StallWhy::Sources;
    return p;
  }
  if (head.pop_queue != nullptr) {
    p.queue = head.pop_queue;
    if (head.pop_queue->front_ready(now) == nullptr) {
      p.why = head.pop_queue->empty() ? diag::StallWhy::PopEmpty
                                      : diag::StallWhy::PopNotReady;
      return p;
    }
  }
  // Sources and queues cleared: a functional unit, memory port or (on a
  // prefetch-only core) prefetch-buffer slot is the remaining gate.
  p.why = diag::StallWhy::FuBusy;
  return p;
}

// Queue writes drain at completion (writeback), in program order per queue
// — the decoupled machines' whole point is that the consumer sees a value
// as soon as it is produced, not when it retires.  An entry that has not
// managed its write (queue full) blocks commit.  A write that is incomplete
// or refused blocks only the younger writes to its own queue.
void OoOCore::do_pushes(std::uint64_t now) {
  bool blocked[3] = {false, false, false};
  for (auto pending = by_age(unpushed_); pending != 0;
       pending &= pending - 1) {
    Entry& e = window_at(static_cast<std::size_t>(std::countr_zero(pending)));
    bool& queue_blocked = blocked[queue_slot(e.push_queue)];
    if (queue_blocked) continue;
    queue_blocked = !completed(e, now);
    if (queue_blocked) continue;
    TimedFifo::Entry qe;
    // Value travels one cycle through the queue interconnect.
    qe.ready = now + 1;
    qe.producer_pos = e.op.trace_pos;
    qe.eod = e.so.push_eod;
    if (!e.push_queue->push(qe)) {
      e.push_queue->note_full_stall();
      queue_blocked = true;
      continue;
    }
    unpushed_ &= ~slot_bit(e);
    progress_ = true;
  }
}

void OoOCore::do_commit(std::uint64_t now) {
  int committed = 0;
  while (window_count_ != 0 && committed < cfg_.commit_width) {
    Entry& head = window_at(0);
    if (!completed(head, now)) break;
    if (write_pending(head)) {
      ++stats_.queue_full_commit_stalls;
      break;  // the queue write has not drained yet
    }
    if (head.so.is_load || head.so.is_store) --mem_ops_in_window_;
    stores_ &= ~slot_bit(head);
    if (head.op.count_commit) ++stats_.committed;
    ++stats_.committed_all;
    window_head_ = (window_head_ + 1) & window_mask_;
    --window_count_;
    ++base_seq_;
    ++committed;
    progress_ = true;
  }
}

OoOCore::Disambiguation OoOCore::check_older_stores(std::uint64_t line,
                                                    std::size_t pos,
                                                    std::uint64_t now) const {
  Disambiguation d;
  // Older stores only, oldest first.
  for (auto older = by_age(stores_) & ((std::uint64_t{1} << pos) - 1);
       older != 0; older &= older - 1) {
    const Entry& s =
        window_at(static_cast<std::size_t>(std::countr_zero(older)));
    if (store_line(s.op.addr) != line) continue;
    if (!completed(s, now)) {
      d.wait = true;
      break;
    }
    d.forward = true;  // most recent older overlapping store wins
  }
  return d;
}

void OoOCore::do_issue(std::uint64_t now) {
  ++census_.calls;
  const std::uint64_t unissued = by_age(unissued_);
  if (unissued == 0) return;
  // The oldest unissued entry, fixed for this pass: the one entry whose
  // wait on an empty queue is charged to the stall counters.
  const auto head = static_cast<std::size_t>(std::countr_zero(unissued));
  // An entry waiting on an unissued producer would fail the source gate
  // before touching any state (the pop-queue gates included), so the walk
  // leaves it out altogether; it rejoins when its last producer issues.
  std::uint64_t pending = unissued & ~by_age(blocked_);
  // Per-queue pop state for this cycle: pops must drain in program order
  // (an older blocked pop blocks younger ones) and respect the per-cycle
  // queue read bandwidth.
  struct PopState {
    bool order_blocked = false;
    int pops = 0;
  };
  PopState pop_state[3];
  int issued = 0;
  int visited = 0;
  for (; pending != 0 && issued < cfg_.issue_width; pending &= pending - 1) {
    ++visited;
    const auto pos = static_cast<std::size_t>(std::countr_zero(pending));
    Entry& e = window_at(pos);

    PopState* ps = nullptr;
    if (e.pop_queue != nullptr) {
      ps = &pop_state[queue_slot(e.pop_queue)];
      if (ps->order_blocked || ps->pops >= kQueuePopsPerCycle)
        continue;
    }

    // A pop whose sources are not ready leaves younger pops unblocked.
    if (e.src_ready > now) continue;

    if (ps != nullptr) {
      if (e.pop_queue->front_ready(now) == nullptr) {
        ps->order_blocked = true;
        if (pos == head) {
          ++stats_.head_pop_empty_stalls;
          e.pop_queue->note_empty_stall();
          // Waiting on the SDQ means the access side is blocked on a
          // computation-side value: the paper's loss-of-decoupling event.
          if (e.pop_queue == queues_.sdq) ++stats_.lod_stalls;
        }
        continue;
      }
      // The read is spent even if a later gate blocks the entry.
      ++ps->pops;
    }

    // Memory disambiguation: a load may not pass an older overlapping
    // store that has not yet written (8-byte granularity; addresses are
    // exact, from the trace).
    if (e.so.is_load && cfg_.has_lsu) {
      const auto d = check_older_stores(store_line(e.op.addr), pos, now);
      if (d.wait) continue;
      e.forwarded = d.forward;
    }

    // Fire-and-forget prefetch loads draw from a finite prefetch buffer.
    if (e.so.is_load && cfg_.prefetch_only && !e.so.value_live &&
        !prefetch_buf_.available(now))
      continue;

    // Functional unit / memory port availability; a store-to-load forward
    // needs no cache port.
    if (e.so.pool != PoolKind::None && !e.forwarded &&
        !pools_[static_cast<std::size_t>(e.so.pool)].acquire(now, e.so.busy))
      continue;

    issue_one(e, now);
    ++issued;
  }
  census_.visits += static_cast<std::uint64_t>(visited);
  census_.issued += static_cast<std::uint64_t>(issued);
}

void OoOCore::issue_one(Entry& e, std::uint64_t now) {
  if (e.pop_queue != nullptr) {
    if (e.so.is_beod) {
      // BEOD only consumes the head token when it is an EOD marker; a data
      // value stays queued for the next POPLDQ (paper §3.1).
      const auto* front = e.pop_queue->front_ready(now);
      if (front != nullptr && front->eod) e.pop_queue->pop();
    } else {
      e.pop_queue->pop();
    }
  }

  if (e.so.is_load) {
    ++stats_.loads;
    if (e.forwarded) {
      ++stats_.forwarded_loads;
      e.complete_cycle = now + 1;
    } else {
      const auto type = cfg_.prefetch_only ? mem::AccessType::Prefetch
                                           : mem::AccessType::Read;
      const auto group =
          cfg_.prefetch_only ? e.so.cmas_group : std::int16_t{-1};
      const auto res =
          memsys_->access(e.op.addr, type, now, e.op.static_idx, group);
      if (cfg_.prefetch_only && !e.so.value_live) {
        // Fire-and-forget prefetch: nothing in the slice reads this value
        // (compiler-proven), so the CMP retires it immediately while the
        // fill completes in the background.  Pointer-chase slices, whose
        // loads feed later slice instructions, keep the full latency.
        e.complete_cycle = now + 1;
        prefetch_buf_.acquire(now, std::max(1, res.latency));
      } else {
        e.complete_cycle = now + static_cast<std::uint64_t>(
                                     std::max(1, res.latency));
      }
    }
  } else if (e.so.is_store) {
    ++stats_.stores;
    // Stores drain into the write buffer; the cache access happens now.
    memsys_->access(e.op.addr, mem::AccessType::Write, now, e.op.static_idx);
    e.complete_cycle = now + 1;
  } else if (e.so.is_prefetch) {
    memsys_->access(e.op.addr, mem::AccessType::Prefetch, now,
                    e.op.static_idx);
    e.complete_cycle = now + 1;
  } else {
    e.complete_cycle = now + static_cast<std::uint64_t>(e.so.latency);
  }

  unissued_ &= ~slot_bit(e);
  progress_ = true;

  // Wake the consumers: each learns this completion, and one whose last
  // unissued producer this was rejoins the issue walk (from the next pass:
  // its src_ready is at least now + 1).
  auto& consumers = consumers_[static_cast<std::size_t>(&e - slots_.data())];
  for (; consumers != 0; consumers &= consumers - 1) {
    Entry& c = slots_[static_cast<std::size_t>(std::countr_zero(consumers))];
    c.src_ready = std::max(c.src_ready, e.complete_cycle);
    if (--c.waits == 0) blocked_ &= ~slot_bit(c);
  }

  if (e.op.mispredicted)
    resolved_.push_back({e.op.trace_pos, e.complete_cycle});
}

void OoOCore::do_dispatch() {
  int dispatched = 0;
  while (input_count_ != 0 && dispatched < cfg_.dispatch_width) {
    if (window_count_ >= static_cast<std::size_t>(cfg_.window)) {
      ++stats_.window_full_stalls;
      break;
    }
    const DynOp& op = input_front();
    const StaticOp& so = table_[op.static_idx];

    if (so.is_mem && !cfg_.has_lsu)
      throw std::logic_error(std::string(cfg_.name) +
                             ": memory op routed to core without LSU");
    if (so.is_store && cfg_.prefetch_only)
      throw std::logic_error(std::string(cfg_.name) +
                             ": store in a CMAS slice");
    if (so.fp_routed && cfg_.fp_alu == 0)
      throw std::logic_error(std::string(cfg_.name) +
                             ": FP op routed to non-FP core");
    if ((so.is_load || so.is_store) && mem_ops_in_window_ >= cfg_.lsq) {
      ++stats_.lsq_full_stalls;
      break;
    }

    // Every field is written explicitly (no Entry{} reset): the slot is
    // reused ring memory, and a full-struct clear followed by the so/op
    // copies would double-write most of it on the per-instruction path.
    const std::size_t slot = (window_head_ + window_count_) & window_mask_;
    const auto bit = std::uint64_t{1} << slot;
    Entry& e = slots_[slot];
    e.so = so;
    e.op = op;
    e.seq = next_seq_++;
    e.complete_cycle = kNoEvent;
    e.pop_queue = nullptr;
    e.push_queue = nullptr;
    e.forwarded = false;

    // Register dependences: the entry waits on each distinct in-window
    // producer that has not issued; one that has folds its completion in
    // at once.
    e.src_seq[0] = so.src1 >= 0 ? last_writer_[so.src1] : 0;
    e.src_seq[1] = so.src2 >= 0 ? last_writer_[so.src2] : 0;
    e.waits = 0;
    e.src_ready = 0;
    for (const auto seq : e.src_seq) {
      const Entry* p = find_by_seq(seq);
      if (p == nullptr) continue;  // no producer, or committed
      auto& consumers = consumers_[static_cast<std::size_t>(p - slots_.data())];
      if (p->complete_cycle != kNoEvent) {
        e.src_ready = std::max(e.src_ready, p->complete_cycle);
      } else if ((consumers & bit) == 0) {  // read twice, waited on once
        consumers |= bit;
        ++e.waits;
      }
    }
    if (e.waits != 0) blocked_ |= bit;

    // Queue roles.  A prefetch-only core (the CMP) executes copies of
    // Access Stream instructions speculatively; it must never touch the
    // architectural queues, so all queue roles are ignored there.
    if (!cfg_.prefetch_only) {
      if (so.pop_role != QueueRole::None) {
        e.pop_queue = queue_ptr(so.pop_role);
        if (e.pop_queue == nullptr)
          throw std::logic_error(std::string(cfg_.name) +
                                 ": queue pop with no queue bound");
      }
      if (so.push_role != QueueRole::None) {
        e.push_queue = queue_ptr(so.push_role);
        // An opcode-driven push with no bound queue degrades to a plain
        // op (bare-core tests); a compiler-annotated push losing its
        // queue would silently drop a communication — fail loudly.
        if (e.push_queue == nullptr && so.push_from_ann)
          throw std::logic_error(std::string(cfg_.name) +
                                 ": queue push with no queue bound");
      }
    }

    // Rename: this entry becomes the live writer of its destination.
    if (so.dst >= 0) last_writer_[so.dst] = e.seq;

    if (so.is_load || so.is_store) ++mem_ops_in_window_;
    unissued_ |= bit;
    if (so.is_store) stores_ |= bit;
    if (e.push_queue != nullptr) unpushed_ |= bit;
    ++window_count_;
    input_pop();
    ++dispatched;
    progress_ = true;
  }
}

// Brute-force recomputation of every incremental frontier; throws on any
// disagreement with the maintained state.  Deliberately written as the
// seed's full-window scans so the two derivations stay independent.
void OoOCore::debug_check_invariants(std::uint64_t now) const {
  const auto fail = [this](const std::string& what) {
    throw std::logic_error(std::string(cfg_.name) +
                           ": invariant violated: " + what);
  };

  // Completion frontier: the min over in-window entries must equal the
  // ring-wide scan.  An unissued entry's kNoEvent never lowers the min, so
  // this checks that every free slot carries a past complete_cycle.
  std::uint64_t want_min = kNoEvent;
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    if (e.complete_cycle > now && e.complete_cycle < want_min)
      want_min = e.complete_cycle;
  }
  if (want_min != next_completion(now)) fail("completion frontier mismatch");

  // Ring-slot masks: bit s set exactly for the ring slots that hold an
  // unissued window entry (complete_cycle still the kNoEvent sentinel) /
  // a store; unpushed_ only ever names in-window entries with a queue
  // write.
  std::uint64_t want_unissued = 0;
  std::uint64_t want_stores = 0;
  std::uint64_t may_push = 0;
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    const auto bit = std::uint64_t{1} << ((window_head_ + i) & window_mask_);
    if (e.complete_cycle == kNoEvent) want_unissued |= bit;
    if (e.so.is_store) want_stores |= bit;
    if (e.push_queue != nullptr) may_push |= bit;
  }
  if (want_unissued != unissued_) fail("unissued mask mismatch");
  if (want_stores != stores_) fail("store mask mismatch");
  if ((unpushed_ & ~may_push) != 0) fail("unpushed mask names a non-writer");

  // Wake-up state: an unissued entry is blocked exactly while one of its
  // distinct in-window producers is unissued, `waits` counts those, and
  // each such producer's consumer mask names it; no other slot names a
  // consumer.  Once unblocked, src_ready is no earlier than every
  // in-window producer's completion, and a future src_ready is one of
  // them (a producer completing after now cannot have committed).
  std::uint64_t want_blocked = 0;
  std::array<std::uint64_t, 64> want_consumers{};
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    if (e.complete_cycle != kNoEvent) continue;
    const auto bit = std::uint64_t{1} << ((window_head_ + i) & window_mask_);
    int waits = 0;
    std::uint64_t latest = 0;
    for (std::size_t j = 0; j < i; ++j) {
      const Entry& p = window_at(j);
      if (p.seq != e.src_seq[0] && p.seq != e.src_seq[1]) continue;
      if (p.complete_cycle == kNoEvent) {
        ++waits;
        want_consumers[(window_head_ + j) & window_mask_] |= bit;
      } else {
        latest = std::max(latest, p.complete_cycle);
      }
    }
    if (waits != e.waits) fail("producer wait count mismatch");
    if (waits != 0) {
      want_blocked |= bit;
    } else if (e.src_ready > now ? latest != e.src_ready
                                 : latest > e.src_ready) {
      fail("source-ready cycle mismatch");
    }
  }
  if (want_blocked != blocked_) fail("blocked mask mismatch");
  if (want_consumers != consumers_) fail("consumer mask mismatch");

  // Memory-op census.
  int want_mem = 0;
  for (std::size_t i = 0; i < window_count_; ++i)
    if (window_at(i).so.is_load || window_at(i).so.is_store) ++want_mem;
  if (want_mem != mem_ops_in_window_) fail("mem-op census mismatch");
}

}  // namespace hidisc::uarch
