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

// Fixture owning instructions (DynOp keeps pointers into this storage).
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
    held_.push_back(std::make_unique<Instruction>(inst));
    DynOp op;
    op.trace_pos = static_cast<std::int64_t>(held_.size()) - 1;
    op.static_idx = static_cast<std::int32_t>(held_.size()) - 1;
    op.inst = held_.back().get();
    op.addr = addr;
    return op;
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
};

TEST_F(CoreTest, IndependentAddsBoundByIssueWidth) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(core.enqueue(op_for(make_add(1 + (i % 8), 0, 0))));
  const auto cycles = drain(core);
  // 16 single-cycle ops at width 4: roughly 4 issue groups + pipe depth.
  EXPECT_LE(cycles, 10u);
  EXPECT_GE(cycles, 4u);
  EXPECT_EQ(core.stats().committed, 16u);
}

TEST_F(CoreTest, DependentChainSerializes) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(core.enqueue(op_for(make_add(1, 1, 1))));
  const auto cycles = drain(core);
  EXPECT_GE(cycles, 16u);  // one per cycle at best
}

TEST_F(CoreTest, ColdLoadPaysFullHierarchyLatency) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  ASSERT_TRUE(core.enqueue(op_for(make_load(1, 0), /*addr=*/0x1000)));
  const auto cycles = drain(core);
  EXPECT_GE(cycles, 133u);  // 1 + 12 + 120
  EXPECT_LE(cycles, 140u);
}

TEST_F(CoreTest, SecondLoadToSameBlockHits) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  ASSERT_TRUE(core.enqueue(op_for(make_load(1, 0), 0x1000)));
  ASSERT_TRUE(core.enqueue(op_for(make_load(2, 1), 0x1008)));
  // Dependent on first load, but same cache block: total stays ~2x miss?
  // No: the second is a hit, so total is ~miss + hit.
  const auto cycles = drain(core);
  EXPECT_LE(cycles, 150u);
  EXPECT_EQ(memsys_.l1().stats().read_misses, 1u);
}

TEST_F(CoreTest, LoadForwardsFromCompletedInWindowStore) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  // An unrelated divide at the head keeps commit blocked, so the store is
  // still in the window (completed) when the load becomes issueable: the
  // load must forward from it without touching the cache.
  Instruction div;
  div.op = Opcode::DIV;
  div.dst = ir(9);
  div.src1 = ir(1);
  div.src2 = ir(2);
  ASSERT_TRUE(core.enqueue(op_for(div)));
  ASSERT_TRUE(core.enqueue(op_for(make_store(3, 0), 0x2000)));
  ASSERT_TRUE(core.enqueue(op_for(make_load(4, 0), 0x2000)));
  drain(core);
  EXPECT_EQ(core.stats().forwarded_loads, 1u);
  // The load never touched the cache; only the store did.
  EXPECT_EQ(memsys_.l1().stats().reads, 0u);
  EXPECT_EQ(memsys_.l1().stats().writes, 1u);
}

TEST_F(CoreTest, LoadWaitsForStoreDataThenReadsCacheAfterCommit) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  // Store data comes from a slow divide; by the time the load can issue
  // the store has committed, so the load reads the (just-written) cache
  // line: an L1 hit, never an early/stale issue.
  Instruction div;
  div.op = Opcode::DIV;
  div.dst = ir(3);
  div.src1 = ir(1);
  div.src2 = ir(2);
  ASSERT_TRUE(core.enqueue(op_for(div)));
  ASSERT_TRUE(core.enqueue(op_for(make_store(3, 0), 0x2000)));
  ASSERT_TRUE(core.enqueue(op_for(make_load(4, 0), 0x2000)));
  const auto cycles = drain(core);
  EXPECT_GE(cycles, 20u);  // the divide gates the store's data
  EXPECT_EQ(core.stats().forwarded_loads + memsys_.l1().stats().reads, 1u);
}

TEST_F(CoreTest, IndependentLoadsOverlapMisses) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  // Four loads to distinct cold blocks: with 2 ports and non-blocking
  // misses they overlap, so total should be far below 4 serial misses.
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(core.enqueue(
        op_for(make_load(1 + i, 0), 0x4000 + 0x1000 * i)));
  const auto cycles = drain(core);
  EXPECT_LT(cycles, 2 * 133u);
}

TEST_F(CoreTest, QueuePopWaitsForPush) {
  TimedFifo ldq("LDQ", 8);
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {&ldq, nullptr, nullptr});
  Instruction pop;
  pop.op = Opcode::POPLDQ;
  pop.dst = ir(5);
  ASSERT_TRUE(core.enqueue(op_for(pop)));

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
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {&ldq, nullptr, nullptr});
  for (int i = 0; i < 3; ++i) {
    Instruction pop;
    pop.op = Opcode::POPLDQ;
    pop.dst = ir(static_cast<std::uint8_t>(5 + i));
    ASSERT_TRUE(core.enqueue(op_for(pop)));
  }
  for (int i = 0; i < 3; ++i)
    ldq.push({/*ready=*/0, /*producer_pos=*/i, /*eod=*/false});
  drain(core);
  EXPECT_EQ(ldq.stats().pops, 3u);
  EXPECT_TRUE(ldq.empty());
}

TEST_F(CoreTest, PushBlocksCommitWhenQueueFull) {
  TimedFifo ldq("LDQ", 1);
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {&ldq, nullptr, nullptr});
  Instruction push;
  push.op = Opcode::PUSHLDQ;
  push.src1 = ir(1);
  ASSERT_TRUE(core.enqueue(op_for(push)));
  ASSERT_TRUE(core.enqueue(op_for(push)));  // second push: queue now full
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
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {&ldq, &sdq, nullptr});
  for (const auto opcode : {Opcode::PUSHLDQ, Opcode::PUSHLDQ,
                            Opcode::PUSHSDQ, Opcode::PUSHSDQ}) {
    Instruction push;
    push.op = opcode;
    push.src1 = ir(1);
    ASSERT_TRUE(core.enqueue(op_for(push)));
  }
  for (std::uint64_t now = 0; now < 50; ++now) core.tick(now);
  EXPECT_EQ(ldq.size(), 1u);
  EXPECT_EQ(sdq.stats().pushes, 2u);
  EXPECT_GT(core.stats().queue_full_commit_stalls, 0u);
  EXPECT_FALSE(core.drained());
}

TEST_F(CoreTest, ProbeNamesTheOldestOpsGate) {
  TimedFifo ldq("LDQ", 1);
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {&ldq, nullptr, nullptr});
  ldq.push({/*ready=*/0, /*producer_pos=*/0, /*eod=*/false});
  Instruction push;
  push.op = Opcode::PUSHLDQ;
  push.src1 = ir(1);
  ASSERT_TRUE(core.enqueue(op_for(push)));
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
  ASSERT_TRUE(core.enqueue(op_for(make_load(2, 0), /*addr=*/0x7000)));
  for (const auto stop = now + 5; now < stop; ++now) core.tick(now);
  probe = core.probe_oldest_stall(now);
  ASSERT_TRUE(probe.valid);
  EXPECT_EQ(probe.why, diag::StallWhy::InFlight);
  EXPECT_EQ(probe.queue, nullptr);
}

TEST_F(CoreTest, AnnotationPushLandsInQueueAtCommit) {
  TimedFifo ldq("LDQ", 8);
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {&ldq, nullptr, nullptr});
  Instruction add = make_add(1, 0, 0);
  add.ann.push_ldq = true;
  ASSERT_TRUE(core.enqueue(op_for(add)));
  drain(core);
  EXPECT_EQ(ldq.stats().pushes, 1u);
}

TEST_F(CoreTest, WindowFullStallsDispatch) {
  auto cfg = small_config();
  cfg.window = 4;
  OoOCore core(cfg, &memsys_, {});
  // A long divide at the head keeps the window occupied.
  Instruction div;
  div.op = Opcode::DIV;
  div.dst = ir(1);
  div.src1 = ir(1);
  div.src2 = ir(2);
  ASSERT_TRUE(core.enqueue(op_for(div)));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(core.enqueue(op_for(make_add(2, 0, 0))));
  drain(core);
  EXPECT_GT(core.stats().window_full_stalls, 0u);
}

TEST_F(CoreTest, PrefetchOnlyCoreRejectsStores) {
  auto cfg = small_config();
  cfg.prefetch_only = true;
  OoOCore core(cfg, &memsys_, {});
  ASSERT_TRUE(core.enqueue(op_for(make_store(1, 0), 0x100)));
  EXPECT_THROW(drain(core), std::logic_error);
}

TEST_F(CoreTest, NoLsuCoreRejectsMemoryOps) {
  auto cfg = small_config();
  cfg.has_lsu = false;
  OoOCore core(cfg, &memsys_, {});
  ASSERT_TRUE(core.enqueue(op_for(make_load(1, 0), 0x100)));
  EXPECT_THROW(drain(core), std::logic_error);
}

TEST_F(CoreTest, PrefetchOnlyLoadsCountAsCachePrefetches) {
  auto cfg = small_config();
  cfg.prefetch_only = true;
  OoOCore core(cfg, &memsys_, {});
  ASSERT_TRUE(core.enqueue(op_for(make_load(1, 0), 0x5000)));
  drain(core);
  EXPECT_EQ(memsys_.l1().stats().prefetches, 1u);
  EXPECT_EQ(memsys_.l1().stats().demand_accesses(), 0u);
}

TEST_F(CoreTest, MispredictedBranchReportsResolution) {
  auto cfg = small_config();
  OoOCore core(cfg, &memsys_, {});
  Instruction br;
  br.op = Opcode::BNE;
  br.src1 = ir(1);
  br.src2 = ir(2);
  br.target = 0;
  auto op = op_for(br);
  op.mispredicted = true;
  ASSERT_TRUE(core.enqueue(op));
  drain(core);
  const auto resolved = core.take_resolved_branches();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].trace_pos, op.trace_pos);
}

TEST_F(CoreTest, LsqCapBoundsMemOpsInWindow) {
  auto cfg = small_config();
  cfg.lsq = 2;
  OoOCore core(cfg, &memsys_, {});
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(core.enqueue(op_for(make_load(1, 0), 0x6000 + 0x40 * i)));
  // All six eventually complete even though only two fit at a time.
  drain(core);
  EXPECT_EQ(core.stats().loads, 6u);
}

}  // namespace
}  // namespace hidisc::uarch
