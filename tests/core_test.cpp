// OoOCore timing behaviour in isolation: issue-width limits, dependence
// chains, load latencies, memory disambiguation / forwarding, queue
// push/pop timing, and structural stalls.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "uarch/core.hpp"

namespace hidisc::uarch {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::ir;

Instruction make_add(int dst, int s1, int s2) {
  Instruction i;
  i.op = Opcode::ADD;
  i.dst = ir(static_cast<std::uint8_t>(dst));
  i.src1 = ir(static_cast<std::uint8_t>(s1));
  i.src2 = ir(static_cast<std::uint8_t>(s2));
  return i;
}

Instruction make_load(int dst, int base, std::int64_t off = 0) {
  Instruction i;
  i.op = Opcode::LD;
  i.dst = ir(static_cast<std::uint8_t>(dst));
  i.src1 = ir(static_cast<std::uint8_t>(base));
  i.imm = off;
  return i;
}

Instruction make_store(int data, int base, std::int64_t off = 0) {
  Instruction i;
  i.op = Opcode::SD;
  i.src2 = ir(static_cast<std::uint8_t>(data));
  i.src1 = ir(static_cast<std::uint8_t>(base));
  i.imm = off;
  return i;
}

// Fixture owning the test's program: DynOps point at its instructions, and
// a core reads their decode from a StaticOpTable built over them, so a
// test makes every op before the core that runs it.
class CoreTest : public ::testing::Test {
 protected:
  CoreConfig small_config() {
    CoreConfig cfg;
    cfg.name = "test";
    cfg.window = 16;
    cfg.issue_width = 4;
    cfg.commit_width = 4;
    cfg.dispatch_width = 4;
    cfg.input_queue = 64;
    cfg.int_alu = 4;
    cfg.fp_alu = 1;
    cfg.fp_muldiv = 1;
    cfg.mem_ports = 2;
    return cfg;
  }

  DynOp op_for(const Instruction& inst, std::uint64_t addr = 0) {
    if (!cores_.empty()) ADD_FAILURE() << "op made after its core's table";
    held_.push_back(std::make_unique<Instruction>(inst));
    DynOp op;
    op.trace_pos = static_cast<std::int64_t>(held_.size()) - 1;
    op.static_idx = static_cast<std::int32_t>(held_.size()) - 1;
    op.inst = held_.back().get();
    op.addr = addr;
    return op;
  }

  // A core over every op made so far, fed `ops` in order.  `patch` may
  // edit the decoded table first.
  OoOCore& make_core(const CoreConfig& cfg, OoOCore::Queues queues = {},
                     const std::vector<DynOp>& ops = {},
                     void (*patch)(std::vector<StaticOp>&) = nullptr) {
    std::vector<StaticOp> decoded;
    for (const auto& inst : held_) decoded.push_back(decode_static_op(*inst));
    if (patch != nullptr) patch(decoded);
    tables_.push_back(std::make_unique<StaticOpTable>(std::move(decoded)));
    cores_.push_back(
        std::make_unique<OoOCore>(cfg, &memsys_, queues, *tables_.back()));
    for (const DynOp& op : ops) EXPECT_TRUE(cores_.back()->enqueue(op));
    return *cores_.back();
  }

  // Runs until drained; returns total cycles.
  std::uint64_t drain(OoOCore& core, std::uint64_t limit = 10000) {
    std::uint64_t now = 0;
    while (!core.drained()) {
      core.tick(now);
      if (++now > limit) ADD_FAILURE() << "core did not drain";
      if (now > limit) break;
    }
    return now;
  }

  std::vector<std::unique_ptr<Instruction>> held_;
  mem::MemorySystem memsys_;
  std::vector<std::unique_ptr<StaticOpTable>> tables_;  // outlive cores_
  std::vector<std::unique_ptr<OoOCore>> cores_;
};

TEST_F(CoreTest, IndependentAddsBoundByIssueWidth) {
  std::vector<DynOp> ops;
  for (int i = 0; i < 16; ++i)
    ops.push_back(op_for(make_add(1 + (i % 8), 0, 0)));
  auto& core = make_core(small_config(), {}, ops);
  const auto cycles = drain(core);
  // 16 single-cycle ops at width 4: roughly 4 issue groups + pipe depth.
  EXPECT_LE(cycles, 10u);
  EXPECT_GE(cycles, 4u);
  EXPECT_EQ(core.stats().committed, 16u);
}

TEST_F(CoreTest, DependentChainSerializes) {
  std::vector<DynOp> ops;
  for (int i = 0; i < 16; ++i) ops.push_back(op_for(make_add(1, 1, 1)));
  auto& core = make_core(small_config(), {}, ops);
  const auto cycles = drain(core);
  EXPECT_GE(cycles, 16u);  // one per cycle at best
}

TEST_F(CoreTest, ColdLoadPaysFullHierarchyLatency) {
  const auto load = op_for(make_load(1, 0), /*addr=*/0x1000);
  const auto cycles = drain(make_core(small_config(), {}, {load}));
  EXPECT_GE(cycles, 133u);  // 1 + 12 + 120
  EXPECT_LE(cycles, 140u);
}

TEST_F(CoreTest, SecondLoadToSameBlockHits) {
  // Dependent on the first load, but the same cache block: the second is
  // a hit, so the total is ~miss + hit.
  const auto first = op_for(make_load(1, 0), 0x1000);
  const auto second = op_for(make_load(2, 1), 0x1008);
  const auto cycles = drain(make_core(small_config(), {}, {first, second}));
  EXPECT_LE(cycles, 150u);
  EXPECT_EQ(memsys_.l1().stats().read_misses, 1u);
}

TEST_F(CoreTest, LoadForwardsFromCompletedInWindowStore) {
  // An unrelated divide at the head keeps commit blocked, so the store is
  // still in the window (completed) when the load becomes issueable: the
  // load must forward from it without touching the cache.
  Instruction div;
  div.op = Opcode::DIV;
  div.dst = ir(9);
  div.src1 = ir(1);
  div.src2 = ir(2);
  const std::vector<DynOp> ops = {op_for(div),
                                  op_for(make_store(3, 0), 0x2000),
                                  op_for(make_load(4, 0), 0x2000)};
  auto& core = make_core(small_config(), {}, ops);
  drain(core);
  EXPECT_EQ(core.stats().forwarded_loads, 1u);
  // The load never touched the cache; only the store did.
  EXPECT_EQ(memsys_.l1().stats().reads, 0u);
  EXPECT_EQ(memsys_.l1().stats().writes, 1u);
}

TEST_F(CoreTest, LoadWaitsForStoreDataThenReadsCacheAfterCommit) {
  // Store data comes from a slow divide; by the time the load can issue
  // the store has committed, so the load reads the (just-written) cache
  // line: an L1 hit, never an early/stale issue.
  Instruction div;
  div.op = Opcode::DIV;
  div.dst = ir(3);
  div.src1 = ir(1);
  div.src2 = ir(2);
  const std::vector<DynOp> ops = {op_for(div),
                                  op_for(make_store(3, 0), 0x2000),
                                  op_for(make_load(4, 0), 0x2000)};
  auto& core = make_core(small_config(), {}, ops);
  const auto cycles = drain(core);
  EXPECT_GE(cycles, 20u);  // the divide gates the store's data
  EXPECT_EQ(core.stats().forwarded_loads + memsys_.l1().stats().reads, 1u);
}

TEST_F(CoreTest, IndependentLoadsOverlapMisses) {
  // Four loads to distinct cold blocks: with 2 ports and non-blocking
  // misses they overlap, so total should be far below 4 serial misses.
  std::vector<DynOp> ops;
  for (int i = 0; i < 4; ++i)
    ops.push_back(op_for(make_load(1 + i, 0), 0x4000 + 0x1000 * i));
  const auto cycles = drain(make_core(small_config(), {}, ops));
  EXPECT_LT(cycles, 2 * 133u);
}

TEST_F(CoreTest, QueuePopWaitsForPush) {
  TimedFifo ldq("LDQ", 8);
  Instruction pop;
  pop.op = Opcode::POPLDQ;
  pop.dst = ir(5);
  auto& core = make_core(small_config(), {&ldq, nullptr, nullptr},
                         {op_for(pop)});

  std::uint64_t now = 0;
  for (; now < 50; ++now) core.tick(now);
  EXPECT_FALSE(core.drained());  // still waiting on the empty LDQ
  EXPECT_GT(core.stats().head_pop_empty_stalls, 0u);

  ldq.push({/*ready=*/60, /*producer_pos=*/0, /*eod=*/false});
  for (; now < 100 && !core.drained(); ++now) core.tick(now);
  EXPECT_TRUE(core.drained());
  EXPECT_EQ(ldq.stats().pops, 1u);
}

TEST_F(CoreTest, PopsDrainInFifoOrder) {
  TimedFifo ldq("LDQ", 8);
  std::vector<DynOp> ops;
  for (int i = 0; i < 3; ++i) {
    Instruction pop;
    pop.op = Opcode::POPLDQ;
    pop.dst = ir(static_cast<std::uint8_t>(5 + i));
    ops.push_back(op_for(pop));
  }
  auto& core = make_core(small_config(), {&ldq, nullptr, nullptr}, ops);
  for (int i = 0; i < 3; ++i)
    ldq.push({/*ready=*/0, /*producer_pos=*/i, /*eod=*/false});
  drain(core);
  EXPECT_EQ(ldq.stats().pops, 3u);
  EXPECT_TRUE(ldq.empty());
}

TEST_F(CoreTest, PushBlocksCommitWhenQueueFull) {
  TimedFifo ldq("LDQ", 1);
  Instruction push;
  push.op = Opcode::PUSHLDQ;
  push.src1 = ir(1);
  // The second push finds the queue full.
  auto& core = make_core(small_config(), {&ldq, nullptr, nullptr},
                         {op_for(push), op_for(push)});
  std::uint64_t now = 0;
  for (; now < 50; ++now) core.tick(now);
  EXPECT_FALSE(core.drained());
  EXPECT_GT(core.stats().queue_full_commit_stalls, 0u);
  ldq.pop();  // consumer frees a slot
  for (; now < 100 && !core.drained(); ++now) core.tick(now);
  EXPECT_TRUE(core.drained());
}

TEST_F(CoreTest, FullQueueBlocksOnlyItsOwnWrites) {
  // The second LDQ write finds the 1-entry LDQ full and blocks commit, but
  // the younger SDQ writes drain at completion all the same: a refused
  // write holds back only the younger writes to its own queue.
  TimedFifo ldq("LDQ", 1);
  TimedFifo sdq("SDQ", 8);
  std::vector<DynOp> ops;
  for (const auto opcode : {Opcode::PUSHLDQ, Opcode::PUSHLDQ,
                            Opcode::PUSHSDQ, Opcode::PUSHSDQ}) {
    Instruction push;
    push.op = opcode;
    push.src1 = ir(1);
    ops.push_back(op_for(push));
  }
  auto& core = make_core(small_config(), {&ldq, &sdq, nullptr}, ops);
  for (std::uint64_t now = 0; now < 50; ++now) core.tick(now);
  EXPECT_EQ(ldq.size(), 1u);
  EXPECT_EQ(sdq.stats().pushes, 2u);
  EXPECT_GT(core.stats().queue_full_commit_stalls, 0u);
  EXPECT_FALSE(core.drained());
}

TEST_F(CoreTest, ProbeNamesTheOldestOpsGate) {
  TimedFifo ldq("LDQ", 1);
  ldq.push({/*ready=*/0, /*producer_pos=*/0, /*eod=*/false});
  Instruction push;
  push.op = Opcode::PUSHLDQ;
  push.src1 = ir(1);
  const auto push_op = op_for(push);
  const auto load = op_for(make_load(2, 0), /*addr=*/0x7000);
  auto& core = make_core(small_config(), {&ldq, nullptr, nullptr}, {push_op});
  std::uint64_t now = 0;
  for (; now < 10; ++now) core.tick(now);
  // Completed, but its write faces the full LDQ.
  auto probe = core.probe_oldest_stall(now);
  ASSERT_TRUE(probe.valid);
  EXPECT_EQ(probe.why, diag::StallWhy::PushFull);
  EXPECT_EQ(probe.queue, &ldq);
  EXPECT_EQ(probe.op, "pushldq");

  ldq.pop();
  for (; now < 20 && !core.drained(); ++now) core.tick(now);
  ASSERT_TRUE(core.drained());
  EXPECT_FALSE(core.probe_oldest_stall(now).valid);

  // A cold load issues at once and waits out the DRAM miss.
  ASSERT_TRUE(core.enqueue(load));
  for (const auto stop = now + 5; now < stop; ++now) core.tick(now);
  probe = core.probe_oldest_stall(now);
  ASSERT_TRUE(probe.valid);
  EXPECT_EQ(probe.why, diag::StallWhy::InFlight);
  EXPECT_EQ(probe.queue, nullptr);
}

TEST_F(CoreTest, AnnotationPushLandsInQueueAtCommit) {
  TimedFifo ldq("LDQ", 8);
  Instruction add = make_add(1, 0, 0);
  add.ann.push_ldq = true;
  drain(make_core(small_config(), {&ldq, nullptr, nullptr}, {op_for(add)}));
  EXPECT_EQ(ldq.stats().pushes, 1u);
}

TEST_F(CoreTest, WindowFullStallsDispatch) {
  auto cfg = small_config();
  cfg.window = 4;
  // A long divide at the head keeps the window occupied.
  Instruction div;
  div.op = Opcode::DIV;
  div.dst = ir(1);
  div.src1 = ir(1);
  div.src2 = ir(2);
  std::vector<DynOp> ops = {op_for(div)};
  for (int i = 0; i < 8; ++i) ops.push_back(op_for(make_add(2, 0, 0)));
  auto& core = make_core(cfg, {}, ops);
  drain(core);
  EXPECT_GT(core.stats().window_full_stalls, 0u);
}

TEST_F(CoreTest, PrefetchOnlyCoreRejectsStores) {
  auto cfg = small_config();
  cfg.prefetch_only = true;
  auto& core = make_core(cfg, {}, {op_for(make_store(1, 0), 0x100)});
  EXPECT_THROW(drain(core), std::logic_error);
}

TEST_F(CoreTest, NoLsuCoreRejectsMemoryOps) {
  auto cfg = small_config();
  cfg.has_lsu = false;
  auto& core = make_core(cfg, {}, {op_for(make_load(1, 0), 0x100)});
  EXPECT_THROW(drain(core), std::logic_error);
}

TEST_F(CoreTest, PrefetchOnlyLoadsCountAsCachePrefetches) {
  auto cfg = small_config();
  cfg.prefetch_only = true;
  drain(make_core(cfg, {}, {op_for(make_load(1, 0), 0x5000)}));
  EXPECT_EQ(memsys_.l1().stats().prefetches, 1u);
  EXPECT_EQ(memsys_.l1().stats().demand_accesses(), 0u);
}

TEST_F(CoreTest, MispredictedBranchReportsResolution) {
  Instruction br;
  br.op = Opcode::BNE;
  br.src1 = ir(1);
  br.src2 = ir(2);
  br.target = 0;
  auto op = op_for(br);
  op.mispredicted = true;
  auto& core = make_core(small_config(), {}, {op});
  drain(core);
  const auto& resolved = core.resolved_branches();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].trace_pos, op.trace_pos);
  core.clear_resolved_branches();
  EXPECT_FALSE(core.has_resolved());
}

TEST_F(CoreTest, LsqCapBoundsMemOpsInWindow) {
  auto cfg = small_config();
  cfg.lsq = 2;
  std::vector<DynOp> ops;
  for (int i = 0; i < 6; ++i)
    ops.push_back(op_for(make_load(1, 0), 0x6000 + 0x40 * i));
  auto& core = make_core(cfg, {}, ops);
  // All six eventually complete even though only two fit at a time.
  drain(core);
  EXPECT_EQ(core.stats().loads, 6u);
}

// ---- wake-up: consumers wait on their producers' issue ---------------------

Instruction make_div(int dst, int s1, int s2) {
  Instruction i = make_add(dst, s1, s2);
  i.op = Opcode::DIV;
  return i;
}

TEST_F(CoreTest, OpReadingOneProducerTwiceWaitsOnItOnce) {
  // Both sources name the divide: the consumer must wake when the divide
  // issues (counting it twice would block it forever) and issue exactly
  // when an op reading the divide once would.
  const std::vector<DynOp> both = {op_for(make_div(1, 2, 3)),
                                   op_for(make_add(4, 1, 1))};
  const std::vector<DynOp> once = {op_for(make_div(1, 2, 3)),
                                   op_for(make_add(4, 1, 5))};
  auto& twice_core = make_core(small_config(), {}, both);
  auto& once_core = make_core(small_config(), {}, once);
  std::uint64_t now = 0;
  for (; !twice_core.drained() && now < 1000; ++now) {
    twice_core.tick(now);
    once_core.tick(now);
    ASSERT_NO_THROW(twice_core.debug_check_invariants(now)) << now;
    ASSERT_EQ(twice_core.issue_census().issued,
              once_core.issue_census().issued)
        << "cycle " << now;
  }
  EXPECT_TRUE(twice_core.drained());
  EXPECT_TRUE(once_core.drained());
  EXPECT_GT(now, 20u);  // the add waited out the divide
}

TEST_F(CoreTest, ConsumerDoesNotIssueInItsProducersCycle) {
  const std::vector<DynOp> ops = {op_for(make_add(1, 0, 0)),
                                  op_for(make_add(2, 1, 0))};
  auto& core = make_core(small_config(), {}, ops);
  core.tick(0);  // both dispatch
  EXPECT_EQ(core.issue_census().issued, 0u);
  core.tick(1);  // the producer issues and wakes the consumer ...
  EXPECT_EQ(core.issue_census().issued, 1u);
  core.tick(2);  // ... which issues once the producer's result is ready
  EXPECT_EQ(core.issue_census().issued, 2u);
}

TEST_F(CoreTest, BlockedPopSpendsNoPopBandwidthNorBlocksYoungerPops) {
  // No opcode that pops also reads a register, so the first pop's decode is
  // edited to read the second divide's result.  That divide waits for the
  // one unpipelined divider, so through cycle 1 the pop waits on an
  // unissued producer.  The four younger pops must all issue past it in
  // that cycle, which they can only do if it neither order-blocks them nor
  // spends one of the cycle's kQueuePopsPerCycle reads.
  static_assert(kQueuePopsPerCycle == 4);
  TimedFifo ldq("LDQ", 8);
  auto cfg = small_config();
  cfg.issue_width = 8;
  cfg.dispatch_width = 8;
  std::vector<DynOp> ops = {op_for(make_div(1, 2, 3)),
                            op_for(make_div(5, 6, 7))};
  for (int i = 0; i < 5; ++i) {
    Instruction pop;
    pop.op = Opcode::POPLDQ;
    pop.dst = ir(static_cast<std::uint8_t>(10 + i));
    ops.push_back(op_for(pop));
  }
  auto& core = make_core(cfg, {&ldq, nullptr, nullptr}, ops,
                         [](std::vector<StaticOp>& t) {
                           t[2].src1 = static_cast<std::int8_t>(ir(5).flat());
                         });
  for (int i = 0; i < 4; ++i)
    ldq.push({/*ready=*/0, /*producer_pos=*/i, /*eod=*/false});
  core.tick(0);  // all seven dispatch
  core.tick(1);
  ASSERT_NO_THROW(core.debug_check_invariants(1));
  EXPECT_EQ(core.issue_census().issued, 5u);  // a divide and four pops
  EXPECT_EQ(ldq.stats().pops, 4u);

  // The blocked pop takes the next token once its divide has issued.
  ldq.push({/*ready=*/0, /*producer_pos=*/4, /*eod=*/false});
  std::uint64_t now = 2;
  for (; !core.drained() && now < 1000; ++now) {
    core.tick(now);
    ASSERT_NO_THROW(core.debug_check_invariants(now)) << now;
  }
  EXPECT_TRUE(core.drained());
  EXPECT_EQ(ldq.stats().pops, 5u);
}

TEST_F(CoreTest, SerialChainVisitsOneEntryPerIssuePass) {
  // 64 ops, each reading the one before: at any time only the chain's
  // next op is unblocked, so no pass looks at more than one entry.
  auto cfg = small_config();
  cfg.window = 64;
  cfg.issue_width = 8;
  cfg.dispatch_width = 8;
  std::vector<DynOp> ops;
  for (int i = 0; i < 64; ++i) ops.push_back(op_for(make_add(1, 1, 2)));
  auto& core = make_core(cfg, {}, ops);
  std::uint64_t now = 0;
  for (; !core.drained() && now < 1000; ++now) {
    const auto before = core.issue_census();
    core.tick(now);
    const auto& after = core.issue_census();
    EXPECT_EQ(after.calls, before.calls + 1);
    EXPECT_LE(after.visits - before.visits, 1u) << "cycle " << now;
  }
  EXPECT_TRUE(core.drained());
  EXPECT_EQ(core.issue_census().visits, 64u);
  EXPECT_EQ(core.issue_census().issued, 64u);
}

}  // namespace
}  // namespace hidisc::uarch
