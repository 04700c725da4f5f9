/**
 * @file
 * Behavioural tests for the out-of-order core: scheduling, memory
 * ordering, fences, branch squashes and the write buffer.
 */

#include <gtest/gtest.h>

#include "pipeline/rob.hh"
#include "sim_test_util.hh"

namespace ede {
namespace {

TEST(Pipeline, EmptyTraceFinishesInstantly)
{
    MiniSim sim;
    Trace t;
    EXPECT_LE(sim.run(t), 2u);
    EXPECT_EQ(sim.core->stats().retired, 0u);
}

TEST(Pipeline, RetiresEveryInstructionExactlyOnce)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 50; ++i)
        b.alu(static_cast<RegIndex>(1 + (i % 8)), kZeroReg);
    sim.run(t);
    EXPECT_EQ(sim.core->stats().retired, t.size());
    EXPECT_EQ(sim.core->stats().cycles, sim.core->stats().issueHist
              .totalSamples());
}

TEST(Pipeline, DependentChainSlowerThanIndependentOps)
{
    Trace dep;
    {
        TraceBuilder b(dep);
        b.movImm(1, 0);
        for (int i = 0; i < 40; ++i)
            b.alu(1, 1); // Serial chain through x1.
    }
    Trace indep;
    {
        TraceBuilder b(indep);
        b.movImm(1, 0);
        for (int i = 0; i < 40; ++i)
            b.alu(static_cast<RegIndex>(2 + (i % 8)), kZeroReg);
    }
    MiniSim s1;
    MiniSim s2;
    const Cycle dep_cycles = s1.run(dep);
    const Cycle indep_cycles = s2.run(indep);
    EXPECT_GT(dep_cycles, indep_cycles);
    // The serial chain executes one ALU per cycle at best.
    EXPECT_GE(dep_cycles, 40u);
}

TEST(Pipeline, MultiplyLatencyVisibleInChain)
{
    Trace muls;
    {
        TraceBuilder b(muls);
        b.movImm(1, 1);
        for (int i = 0; i < 20; ++i)
            b.mul(1, 1, 1);
    }
    Trace alus;
    {
        TraceBuilder b(alus);
        b.movImm(1, 1);
        for (int i = 0; i < 20; ++i)
            b.alu(1, 1);
    }
    MiniSim s1;
    MiniSim s2;
    EXPECT_GT(s1.run(muls), s2.run(alus));
}

TEST(Pipeline, LoadMissPaysMemoryLatency)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    b.ldr(1, 2, MiniSim::dramLine(0));
    const Cycle cycles = sim.run(t);
    EXPECT_GT(cycles, 30u); // L1+L2+L3+DRAM path.
    EXPECT_EQ(sim.core->stats().retired, 1u);
}

TEST(Pipeline, DependentLoadsChainThroughRegisters)
{
    // ldr x1,[x2]; ldr x3,[x1]: the second must wait for the first.
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const std::size_t l1 = b.ldr(1, 2, MiniSim::dramLine(0));
    const std::size_t l2 = b.ldr(3, 1, MiniSim::dramLine(50));
    sim.run(t);
    EXPECT_GT(sim.done(l2), sim.done(l1));
}

TEST(Pipeline, IndependentLoadsOverlap)
{
    Trace two;
    {
        TraceBuilder b(two);
        b.ldr(1, 2, MiniSim::dramLine(0));
        b.ldr(3, 4, MiniSim::dramLine(40));
    }
    Trace chain;
    {
        TraceBuilder b(chain);
        b.ldr(1, 2, MiniSim::dramLine(0));
        b.ldr(3, 1, MiniSim::dramLine(40));
    }
    MiniSim s1;
    MiniSim s2;
    const Cycle overlapped = s1.run(two);
    const Cycle serial = s2.run(chain);
    EXPECT_LT(overlapped, serial);
}

TEST(Pipeline, StoreValueReachesTimingImage)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    b.str(1, 2, MiniSim::dramLine(1), 0xabcdu);
    sim.run(t);
    EXPECT_EQ(sim.image.read<std::uint64_t>(MiniSim::dramLine(1)),
              0xabcdu);
}

TEST(Pipeline, StpWritesBothHalves)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = MiniSim::dramLine(2); // 16-byte aligned.
    b.stp(1, 2, 3, a, 111, 222);
    sim.run(t);
    EXPECT_EQ(sim.image.read<std::uint64_t>(a), 111u);
    EXPECT_EQ(sim.image.read<std::uint64_t>(a + 8), 222u);
}

TEST(Pipeline, StoreToLoadForwarding)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = MiniSim::dramLine(3);
    b.str(1, 2, a, 77);
    const std::size_t ld = b.ldr(3, 4, a);
    const Cycle cycles = sim.run(t);
    EXPECT_GE(sim.core->stats().loadsForwarded, 1u);
    // The load must not wait for the store to drain to the cache.
    EXPECT_LT(sim.done(ld), cycles);
}

TEST(Pipeline, PartialOverlapWaitsForStoreCompletion)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = MiniSim::dramLine(4);
    const std::size_t st = b.stp(1, 2, 3, a, 1, 2); // 16 bytes.
    // 8-byte load inside the pair: covered, forwards.
    const std::size_t ld_cov = b.ldr(4, 5, a + 8);
    sim.run(t);
    EXPECT_GE(sim.done(ld_cov), 0u);
    EXPECT_GE(sim.core->stats().loadsForwarded, 1u);
    (void)st;
}

TEST(Pipeline, OverlappingStoresDrainInOrder)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = MiniSim::dramLine(5);
    const std::size_t s1 = b.str(1, 2, a, 1);
    const std::size_t s2 = b.str(3, 4, a, 2); // Same address.
    sim.run(t);
    EXPECT_GE(sim.done(s2), sim.done(s1));
    // Drain order decides the final value.
    EXPECT_EQ(sim.image.read<std::uint64_t>(a), 2u);
}

TEST(Pipeline, StoreAfterCleanNeedsNoOrdering)
{
    // A store following a DC CVAP of the same line must not wait for
    // the (slow) persist acknowledgement.
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = sim.nvmLine(30);
    b.str(1, 2, a, 1);
    b.dsbSy(); // Warm the line, quiesce.
    const std::size_t cv = b.cvap(2, a);
    const std::size_t st = b.str(3, 4, a + 8, 2);
    sim.run(t);
    EXPECT_LT(sim.done(st), sim.done(cv));
}

TEST(Pipeline, CvapOrderedAfterSameLineStore)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = sim.nvmLine(0);
    const std::size_t st = b.str(1, 2, a, 9);
    const std::size_t cv = b.cvap(2, a);
    sim.run(t);
    EXPECT_GT(sim.done(cv), sim.done(st));
    EXPECT_EQ(sim.mem->controller().nvm().stats().cleansAccepted, 1u);
}

TEST(Pipeline, DsbWaitsForOlderPersistAndBlocksYounger)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    const Addr a = sim.nvmLine(1);
    b.str(1, 2, a, 5);
    const std::size_t cv = b.cvap(2, a);
    const std::size_t fence = b.dsbSy();
    const std::size_t young = b.alu(3, kZeroReg);
    sim.run(t);
    // The DSB completes in the same cycle the last older persist
    // does, never earlier.
    EXPECT_GE(sim.done(fence), sim.done(cv));
    EXPECT_GT(sim.done(young), sim.done(cv));
}

TEST(Pipeline, DsbSerializesIndependentPersistPairs)
{
    // Two independent {store, cvap} pairs: a DSB between them forces
    // serialization (Figure 3); without it they overlap.
    auto build = [](MiniSim &sim, bool fence) {
        Trace t;
        TraceBuilder b(t);
        for (int i = 0; i < 8; ++i) {
            const Addr a = sim.nvmLine(10 + i);
            b.str(1, 2, a, i);
            b.cvap(2, a);
            if (fence)
                b.dsbSy();
        }
        return t;
    };
    MiniSim fenced;
    MiniSim free_run;
    const Trace tf = build(fenced, true);
    const Trace tu = build(free_run, false);
    const Cycle with_fence = fenced.run(tf);
    const Cycle without = free_run.run(tu);
    EXPECT_GT(with_fence, without + 100);
}

TEST(Pipeline, DmbStOrdersStoreVisibility)
{
    // First store misses to a cold NVM line (slow fill); the second
    // hits a warmed DRAM line (fast).  Without DMB ST the second
    // becomes visible first; with it, visibility is ordered.
    auto build = [](MiniSim &sim, bool dmb, std::size_t &i1,
                    std::size_t &i2) {
        Trace t;
        TraceBuilder b(t);
        b.str(1, 2, MiniSim::dramLine(6), 1); // Warm the line.
        b.dsbSy();                            // Quiesce.
        i1 = b.str(1, 2, sim.nvmLine(2), 2);
        if (dmb)
            b.dmbSt();
        i2 = b.str(3, 4, MiniSim::dramLine(6), 3);
        return t;
    };
    std::size_t a1;
    std::size_t a2;
    MiniSim plain;
    const Trace tp = build(plain, false, a1, a2);
    plain.run(tp);
    EXPECT_LT(plain.done(a2), plain.done(a1))
        << "unfenced stores should complete out of order here";

    std::size_t b1;
    std::size_t b2;
    MiniSim fenced;
    const Trace tf = build(fenced, true, b1, b2);
    fenced.run(tf);
    EXPECT_GE(fenced.done(b2), fenced.done(b1));
}

TEST(Pipeline, DmbStCvapCoverageIsConfigurable)
{
    // Architecturally DMB ST does not order DC CVAP (the Section II-A
    // hazard that makes SU unsafe); conservative hardware (gem5's
    // LSQ, our default) stalls it anyway.  Both behaviours are
    // modelled.
    auto build = [](MiniSim &sim, std::size_t &cv, std::size_t &young) {
        Trace t;
        TraceBuilder b(t);
        b.str(1, 2, MiniSim::dramLine(7), 9); // Warm the young line.
        b.dsbSy();
        const Addr slow = sim.nvmLine(3);
        b.str(1, 2, slow, 1);
        cv = b.cvap(2, slow);
        b.dmbSt();
        young = b.str(3, 4, MiniSim::dramLine(7), 2);
        return t;
    };
    {
        CoreParams conservative;
        conservative.dmbStCoversCvap = true;
        MiniSim sim(EnforceMode::None, conservative);
        std::size_t cv;
        std::size_t young;
        const Trace t = build(sim, cv, young);
        sim.run(t);
        EXPECT_GE(sim.done(young), sim.done(cv));
    }
    {
        CoreParams aggressive;
        aggressive.dmbStCoversCvap = false;
        MiniSim sim(EnforceMode::None, aggressive);
        std::size_t cv;
        std::size_t young;
        const Trace t = build(sim, cv, young);
        sim.run(t);
        EXPECT_LT(sim.done(young), sim.done(cv));
    }
}

TEST(Pipeline, MispredictedBranchSquashesAndRecovers)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    b.movImm(1, 1);
    b.movImm(2, 2);
    // The bimodal table initializes to weakly-taken, so a not-taken
    // branch mispredicts on first sight.
    b.branchCond("brq", 1, 2, false);
    const Addr a = MiniSim::dramLine(8);
    b.str(3, 4, a, 42);
    b.alu(5, kZeroReg);
    sim.run(t);
    EXPECT_GE(sim.core->stats().mispredicts, 1u);
    EXPECT_GE(sim.core->stats().squashes, 1u);
    EXPECT_EQ(sim.core->stats().retired, t.size());
    EXPECT_EQ(sim.image.read<std::uint64_t>(a), 42u);
}

TEST(Pipeline, PredictorLearnsRepeatedDirection)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 20; ++i)
        b.branchCond("loop", 1, 2, false);
    sim.run(t);
    // First one or two mispredict; the rest are learned.  Dispatch
    // counts include squash replays, so it can exceed 20.
    EXPECT_LE(sim.core->stats().mispredicts, 5u);
    EXPECT_GE(sim.core->stats().branches, 20u);
    EXPECT_LE(sim.core->stats().branches, 30u);
}

TEST(Pipeline, SquashedLoadResponseIsDropped)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    b.branchCond("sq", 1, 2, false); // Mispredicts.
    b.ldr(1, 2, MiniSim::dramLine(9)); // Issued on the wrong path.
    for (int i = 0; i < 10; ++i)
        b.alu(3, kZeroReg);
    sim.run(t);
    EXPECT_EQ(sim.core->stats().retired, t.size());
}

TEST(Pipeline, WriteBufferBackpressureStallsRetire)
{
    CoreParams small;
    small.wbSize = 2;
    MiniSim sim(EnforceMode::None, small);
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 12; ++i)
        b.str(1, 2, sim.nvmLine(20 + i), i); // All cold NVM lines.
    sim.run(t);
    EXPECT_GT(sim.core->stats().retireStallWbFull, 0u);
    EXPECT_EQ(sim.core->stats().retired, t.size());
}

TEST(Pipeline, IssueHistogramAccountsEveryCycle)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 30; ++i)
        b.alu(static_cast<RegIndex>(1 + (i % 6)), kZeroReg);
    const Cycle cycles = sim.run(t);
    const Histogram &h = sim.core->stats().issueHist;
    EXPECT_EQ(h.totalSamples(), cycles);
    std::uint64_t issued = 0;
    for (std::size_t w = 1; w < h.size(); ++w)
        issued += h.count(w) * w;
    EXPECT_EQ(issued, sim.core->stats().issuedOps);
}

TEST(Pipeline, NopsAndFencesRetireInOrder)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    b.nop();
    b.dmbSt();
    b.nop();
    b.dsbSy();
    b.nop();
    sim.run(t);
    EXPECT_EQ(sim.core->stats().retired, 5u);
}

TEST(Rob, LookupFollowsRetireSquashAndGaps)
{
    // Sequence numbers stay unique: after a squash the next dispatch
    // skips the discarded ones, leaving a gap the lookup must reject.
    Rob rob(8);
    for (SeqNum s = 1; s <= 6; ++s)
        rob.push(s).traceIdx = s * 10;
    while (rob.back().seq > 3)
        rob.popBack();                // Squash 4..6.
    rob.push(7);
    rob.push(8);
    for (SeqNum s : {1, 2, 3, 7, 8}) {
        ASSERT_NE(rob.find(s), nullptr) << s;
        EXPECT_EQ(rob.find(s)->seq, s);
    }
    for (SeqNum s : {0, 4, 5, 6, 9, 100})
        EXPECT_EQ(rob.find(s), nullptr) << s;
    EXPECT_EQ(rob.find(2)->traceIdx, 20u);

    rob.popFront();                   // Retire 1..3: the first run ends.
    rob.popFront();
    rob.popFront();
    EXPECT_EQ(rob.find(3), nullptr);
    EXPECT_EQ(rob.find(7), &rob.front());
    // The ring wraps: eight more entries reuse the retired slots.
    while (!rob.empty())
        rob.popFront();
    for (SeqNum s = 20; s < 28; ++s)
        rob.push(s);
    EXPECT_EQ(rob.size(), 8u);
    EXPECT_EQ(rob.find(27), &rob.back());
    EXPECT_EQ(rob.find(8), nullptr);
}

TEST(SeqSet, OldestHeadAfterEraseAndTruncate)
{
    SeqSet set;
    for (SeqNum s : {3, 5, 9, 12})
        set.push(s);
    EXPECT_TRUE(set.olderThan(4));
    EXPECT_FALSE(set.olderThan(3));
    set.erase(3);
    set.erase(4);                     // Not a member: no effect.
    EXPECT_EQ(set.front(), 5u);
    set.truncateAbove(9);
    EXPECT_EQ(std::vector<SeqNum>(set.begin(), set.end()),
              (std::vector<SeqNum>{5, 9}));
    set.erase(5);
    set.erase(9);
    EXPECT_TRUE(set.empty());
    EXPECT_FALSE(set.olderThan(100));
}

} // namespace
} // namespace ede
