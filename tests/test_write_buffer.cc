/**
 * @file
 * Unit tests for the write buffer: srcID CAM behaviour (Section
 * V-D), memory-dependence gating, DMB gating, JOIN entries and
 * backpressure -- driven directly against a real memory hierarchy.
 */

#include <gtest/gtest.h>

#include "pipeline/write_buffer.hh"

namespace ede {
namespace {

struct WbFixture : ::testing::Test, WriteBufferOwner
{
    WbFixture() : mem(MemSystemParams{})
    {
        wb = std::make_unique<WriteBuffer>(4, 2, 64, mem, *this);
    }

    void
    onWbComplete(const WbEntry &e, Cycle) override
    {
        completed.push_back(e.seq);
    }

    bool
    storesOlderIncomplete(SeqNum barrier) const override
    {
        return dmbBlocked && barrier != kNoSeq;
    }

    WbEntry
    store(SeqNum seq, Addr addr, SeqNum src = kNoSeq)
    {
        WbEntry e;
        e.seq = seq;
        e.si.op = Op::Str;
        e.si.size = 8;
        e.addr = addr;
        e.size = 8;
        e.val0 = seq;
        e.srcId = src;
        return e;
    }

    WbEntry
    cvap(SeqNum seq, Addr addr, SeqNum src = kNoSeq)
    {
        WbEntry e;
        e.seq = seq;
        e.si.op = Op::DcCvap;
        e.addr = addr;
        e.srcId = src;
        return e;
    }

    WbEntry
    join(SeqNum seq, SeqNum src1, SeqNum src2)
    {
        WbEntry e;
        e.seq = seq;
        e.si.op = Op::Join;
        e.srcId = src1;
        e.srcId2 = src2;
        return e;
    }

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i) {
            mem.tick(now);
            wb->tick(now);
            ++now;
        }
    }

    bool
    isDone(SeqNum seq) const
    {
        for (SeqNum s : completed)
            if (s == seq)
                return true;
        return false;
    }

    MemSystem mem;
    std::unique_ptr<WriteBuffer> wb;
    std::vector<SeqNum> completed;
    bool dmbBlocked = false;
    Cycle now = 0;
};

TEST_F(WbFixture, StoreDrainsAndCompletes)
{
    wb->insert(store(1, 0x1000));
    run(2000);
    EXPECT_TRUE(isDone(1));
    EXPECT_TRUE(wb->empty());
    EXPECT_EQ(wb->stats().pushes, 1u);
}

TEST_F(WbFixture, FullAndOccupancy)
{
    dmbBlocked = true; // Hold everything.
    for (SeqNum s = 1; s <= 4; ++s) {
        WbEntry e = store(s, 0x1000 + 64 * s);
        e.dmbBarrier = 100;
        wb->insert(e);
    }
    EXPECT_TRUE(wb->full());
    EXPECT_EQ(wb->occupancy(), 4u);
    run(50);
    EXPECT_TRUE(completed.empty());
    EXPECT_GT(wb->stats().dmbGated, 0u);
    dmbBlocked = false;
    run(2000);
    EXPECT_EQ(completed.size(), 4u);
}

TEST_F(WbFixture, SrcIdGatesUntilProducerCompletes)
{
    // Consumer's producer is present: it must wait.
    wb->insert(cvap(1, MemSystemParams{}.map.nvmBase() + 0x100));
    wb->insert(store(2, 0x2000, /*src=*/1));
    run(5);
    EXPECT_GT(wb->stats().srcIdGated, 0u);
    run(3000);
    ASSERT_EQ(completed.size(), 2u);
    // The producer completed first.
    EXPECT_EQ(completed[0], 1u);
    EXPECT_EQ(completed[1], 2u);
}

TEST_F(WbFixture, InsertionCamClearsDeadSrcId)
{
    // Producer seq 1 is NOT in the buffer (already completed before
    // this retirement): the CAM check must clear the tag or the
    // entry deadlocks (Section V-D).
    wb->insert(store(2, 0x2000, /*src=*/1));
    run(2000);
    EXPECT_TRUE(isDone(2));
}

TEST_F(WbFixture, OnProducerCompleteClearsTags)
{
    wb->insert(cvap(1, MemSystemParams{}.map.nvmBase() + 0x100));
    WbEntry e = store(2, 0x2000);
    e.srcId = 999; // A producer that completes outside the buffer.
    wb->insert(e);
    run(3);
    wb->onProducerComplete(999);
    run(2000);
    EXPECT_TRUE(isDone(2));
}

TEST_F(WbFixture, JoinCompletesWhenBothTagsClear)
{
    wb->insert(cvap(1, MemSystemParams{}.map.nvmBase() + 0x100));
    wb->insert(cvap(2, MemSystemParams{}.map.nvmBase() + 0x200));
    wb->insert(join(3, 1, 2));
    run(3000);
    ASSERT_EQ(completed.size(), 3u);
    EXPECT_EQ(completed.back(), 3u); // JOIN last.
    EXPECT_EQ(wb->stats().pushes, 2u); // JOIN pushes nothing.
}

TEST_F(WbFixture, JoinWithNoTagsCompletesImmediately)
{
    wb->insert(join(5, kNoSeq, kNoSeq));
    run(5);
    EXPECT_TRUE(isDone(5));
}

TEST_F(WbFixture, CleanWaitsForOlderSameLineStore)
{
    const Addr nvm = MemSystemParams{}.map.nvmBase() + 0x300;
    wb->insert(store(1, nvm));
    wb->insert(cvap(2, nvm));
    run(3000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0], 1u);
    EXPECT_EQ(completed[1], 2u);
    EXPECT_GT(wb->stats().lineGated, 0u);
}

TEST_F(WbFixture, StoreAfterCleanIsNotGated)
{
    // Warm the line first so the later store is an L1 hit.
    const Addr nvm = MemSystemParams{}.map.nvmBase() + 0x400;
    wb->insert(store(1, nvm));
    run(3000);
    ASSERT_TRUE(isDone(1));
    completed.clear();
    wb->insert(cvap(2, nvm));
    wb->insert(store(3, nvm + 8));
    run(3000);
    ASSERT_EQ(completed.size(), 2u);
    // The (fast) store finishes before the clean's persist ack: a
    // store after a clean carries no ordering requirement.
    EXPECT_EQ(completed[0], 3u);
    EXPECT_EQ(completed[1], 2u);
}

TEST_F(WbFixture, OverlappingStoresStayOrdered)
{
    wb->insert(store(1, 0x5000));
    wb->insert(store(2, 0x5000));
    run(3000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed[0], 1u);
    EXPECT_EQ(completed[1], 2u);
}

TEST_F(WbFixture, DisjointStoresSameLineMayReorder)
{
    // Different bytes of one line carry no value dependence.
    wb->insert(store(1, 0x6000));
    wb->insert(store(2, 0x6008));
    run(3000);
    EXPECT_EQ(completed.size(), 2u);
}

TEST_F(WbFixture, YoungestOverlapFindsForwardingSource)
{
    wb->insert(store(1, 0x7000));
    wb->insert(store(2, 0x7000));
    auto [seq, covers] = wb->youngestOverlap(0x7000, 8);
    EXPECT_EQ(seq, 2u);
    EXPECT_TRUE(covers);

    auto [none, c2] = wb->youngestOverlap(0x8000, 8);
    EXPECT_EQ(none, kNoSeq);
    EXPECT_FALSE(c2);
}

TEST_F(WbFixture, PartialOverlapReportsNotCovering)
{
    WbEntry e = store(1, 0x9000);
    wb->insert(e);
    // 16-byte query against an 8-byte store: overlap, not covered.
    auto [seq, covers] = wb->youngestOverlap(0x9000, 16);
    EXPECT_EQ(seq, 1u);
    EXPECT_FALSE(covers);
}

TEST_F(WbFixture, ChainedSrcIdsDrainInDependenceOrder)
{
    const Addr nvm = MemSystemParams{}.map.nvmBase();
    wb->insert(cvap(1, nvm + 0x100));
    wb->insert(cvap(2, nvm + 0x200, /*src=*/1));
    wb->insert(cvap(3, nvm + 0x300, /*src=*/2));
    run(5000);
    ASSERT_EQ(completed.size(), 3u);
    EXPECT_EQ(completed[0], 1u);
    EXPECT_EQ(completed[1], 2u);
    EXPECT_EQ(completed[2], 3u);
}

TEST_F(WbFixture, SameLineChainWithBarrierCountsEachGateOncePerTick)
{
    // A warmed DRAM line: a store push hits the L1D and completes two
    // ticks after it starts (L1 processes it next tick, responds one
    // cycle later).
    const Addr a = 0x3000;
    mem.warmLine(a, 1);
    dmbBlocked = true;
    wb->insert(store(1, a));          // pushes at tick 0
    wb->insert(cvap(2, a));           // same line as 1: line-gated
    WbEntry s3 = store(3, a + 8);     // disjoint bytes: barrier-gated
    s3.dmbBarrier = 50;
    wb->insert(s3);
    wb->insert(store(4, a));          // overlaps 1: line-gated

    std::vector<SeqNum> blockers;
    ASSERT_TRUE(wb->appendLineBlockers(2, blockers));
    ASSERT_TRUE(wb->appendLineBlockers(4, blockers));
    ASSERT_TRUE(wb->appendLineBlockers(3, blockers));
    EXPECT_EQ(blockers, (std::vector<SeqNum>{1, 1}));

    // Ticks 0 and 1: entry 1 pushing; 2 and 4 line-gated, 3
    // barrier-gated -> 2 line + 1 dmb per tick.
    // Tick 2: 1 completes; 2 and 4 push (drain width 2), 3 gated.
    // Ticks 3..5: 3 still barrier-gated, nothing else counts.
    run(6);
    EXPECT_EQ(completed.front(), 1u);
    EXPECT_EQ(wb->stats().lineGated, 4u);
    EXPECT_EQ(wb->stats().dmbGated, 6u);
    EXPECT_EQ(wb->stats().srcIdGated, 0u);
    EXPECT_EQ(wb->stats().memRejected, 0u);
    EXPECT_EQ(wb->stats().pushes, 3u);

    // Releasing the barrier lets 3 push on the next tick.
    dmbBlocked = false;
    run(1);
    EXPECT_EQ(wb->stats().pushes, 4u);
    EXPECT_EQ(wb->stats().dmbGated, 6u);
    run(3000);
    EXPECT_TRUE(wb->empty());
    EXPECT_EQ(wb->stats().lineGated, 4u);
}

TEST(WbDeath, OverflowPanics)
{
    struct NoOwner : WriteBufferOwner
    {
        void onWbComplete(const WbEntry &, Cycle) override {}
        bool storesOlderIncomplete(SeqNum) const override { return false; }
    } owner;
    MemSystem mem{MemSystemParams{}};
    WriteBuffer wb(1, 1, 64, mem, owner);
    WbEntry e;
    e.seq = 1;
    e.si.op = Op::Str;
    e.addr = 0x100;
    e.size = 8;
    wb.insert(e);
    WbEntry e2 = e;
    e2.seq = 2;
    EXPECT_DEATH(wb.insert(e2), "overflow");
}

} // namespace
} // namespace ede
