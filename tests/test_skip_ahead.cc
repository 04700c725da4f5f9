/**
 * @file
 * Differential validation of the skip-ahead scheduler.
 *
 * The skip-ahead loop in OoOCore::run jumps dead windows using
 * component next-event hints; the reference loop ticks every cycle.
 * The contract is bit-identical *simulated* results: the same cycle
 * counts, the same CoreStats (including replayed dead-tick stall
 * counters), the same write-buffer/NVM statistics, and the same
 * persist order -- for every Table III configuration.  Only the host
 * profile (wall time, tick counts, skip counters) may differ.
 *
 * These tests pin the ticking mode through SimConfig/CoreParams
 * rather than the EDE_REFERENCE_TICKING environment variable, which
 * is resolved once per process and so cannot drive a differential
 * test.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/harness.hh"
#include "sim_test_util.hh"

namespace ede {
namespace {

/** Everything a differential comparison looks at. */
struct RunSnapshot
{
    RunResult result;
    Cycle opCycles = 0;
    std::vector<PersistEvent> persists;
    std::vector<MediaWriteEvent> mediaWrites;
    HostProfile profile;
};

RunSnapshot
runWorkload(AppId app, Config cfg, TickingMode mode)
{
    const RunSpec spec{6, 6, 42};
    SimParams params = makeParams(cfg);
    params.core.ticking = mode;
    WorkloadHarness h(app, cfg, spec, AppParams{}, params);
    h.generate();
    h.simulate();
    RunSnapshot snap;
    snap.result = h.system().result();
    snap.opCycles = h.opPhaseCycles();
    snap.persists = h.system().persistEvents();
    snap.mediaWrites = h.system().mediaWriteEvents();
    snap.profile = h.system().profile();
    return snap;
}

/** @p rec's visitFields entries as (name, value) pairs. */
template <class R>
std::vector<std::pair<std::string, std::uint64_t>>
fieldsOf(const R &rec)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    visitFields(rec, [&](const char *name, const auto &f) {
        out.emplace_back(name, f);
    });
    return out;
}

/** Every visitFields entry of @p a and @p b compared by name. */
template <class R>
void
expectSameFields(const R &a, const R &b, const std::string &where)
{
    const auto fa = fieldsOf(a);
    const auto fb = fieldsOf(b);
    ASSERT_EQ(fa.size(), fb.size()) << where;
    for (std::size_t i = 0; i < fa.size(); ++i)
        EXPECT_EQ(fa[i], fb[i]) << where << '.' << fa[i].first;
}

void
expectSameHistogram(const Histogram &a, const Histogram &b,
                    const std::string &where)
{
    EXPECT_EQ(a.counts(), b.counts()) << where;
    EXPECT_EQ(a.saturated(), b.saturated()) << where;
}

void
expectSameSnapshot(const RunSnapshot &ref, const RunSnapshot &skip)
{
    const RunResult &a = ref.result;
    const RunResult &b = skip.result;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(ref.opCycles, skip.opCycles);
    EXPECT_EQ(a.coreCount, b.coreCount);
    expectSameFields(a.core, b.core, "core");
    expectSameHistogram(a.core.issueHist, b.core.issueHist, "issueHist");
    expectSameFields(a.wb, b.wb, "wb");
    expectSameFields(a.nvm, b.nvm, "nvm");
    EXPECT_EQ(a.nvmOccupancy.counts(), b.nvmOccupancy.counts());
    EXPECT_EQ(a.nvmOccupancy.sampleSum(), b.nvmOccupancy.sampleSum());
    expectSameFields(a.l1d, b.l1d, "l1d");
    expectSameFields(a.l2, b.l2, "l2");
    expectSameFields(a.l3, b.l3, "l3");
    expectSameFields(a.dram, b.dram, "dram");
    expectSameFields(a.coherence, b.coherence, "coherence");
    ASSERT_EQ(a.perCore.size(), b.perCore.size());
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        const std::string core = "perCore[" + std::to_string(c) + "]";
        EXPECT_EQ(a.perCore[c].core, b.perCore[c].core) << core;
        expectSameFields(a.perCore[c].stats, b.perCore[c].stats, core);
        expectSameHistogram(a.perCore[c].stats.issueHist,
                            b.perCore[c].stats.issueHist, core);
        expectSameFields(a.perCore[c].wb, b.perCore[c].wb, core + ".wb");
        expectSameFields(a.perCore[c].l1d, b.perCore[c].l1d,
                         core + ".l1d");
    }

    // Persist order is the crash-consistency ground truth; the fault
    // campaign's crash-point classification follows from it and the
    // media-write schedule, so identity here covers the campaign.
    ASSERT_EQ(ref.persists.size(), skip.persists.size());
    for (std::size_t i = 0; i < ref.persists.size(); ++i) {
        EXPECT_EQ(ref.persists[i].addr, skip.persists[i].addr) << i;
        EXPECT_EQ(ref.persists[i].size, skip.persists[i].size) << i;
        EXPECT_EQ(ref.persists[i].cycle, skip.persists[i].cycle) << i;
    }
    ASSERT_EQ(ref.mediaWrites.size(), skip.mediaWrites.size());
    for (std::size_t i = 0; i < ref.mediaWrites.size(); ++i) {
        EXPECT_EQ(ref.mediaWrites[i].lineAddr,
                  skip.mediaWrites[i].lineAddr) << i;
        EXPECT_EQ(ref.mediaWrites[i].cycle,
                  skip.mediaWrites[i].cycle) << i;
    }
}

class SkipAheadDifferential
    : public ::testing::TestWithParam<Config>
{
};

/**
 * The sizeof static_assert beside each counter record catches a new
 * field; this catches a field list that lost an entry or visits one
 * twice, so the comparison below sees every counter exactly once.
 */
template <class R>
void
expectEveryCounterVisited(const char *record, std::size_t extraBytes = 0)
{
    const auto fields = fieldsOf(R{});
    std::set<std::string> names;
    for (const auto &f : fields)
        names.insert(f.first);
    EXPECT_EQ(names.size(), fields.size()) << record;
    EXPECT_EQ(fields.size() * sizeof(std::uint64_t) + extraBytes,
              sizeof(R))
        << record;
}

TEST(SkipAhead, EveryCounterIsCompared)
{
    expectEveryCounterVisited<CoreStats>("CoreStats", sizeof(Histogram));
    expectEveryCounterVisited<WriteBufferStats>("WriteBufferStats");
    expectEveryCounterVisited<CacheStats>("CacheStats");
    expectEveryCounterVisited<NvmStats>("NvmStats");
    expectEveryCounterVisited<DramStats>("DramStats");
    expectEveryCounterVisited<CoherenceStats>("CoherenceStats");
}

TEST_P(SkipAheadDifferential, UpdateWorkloadIsBitIdentical)
{
    const RunSnapshot ref = runWorkload(AppId::Update, GetParam(),
                                        TickingMode::Reference);
    const RunSnapshot skip = runWorkload(AppId::Update, GetParam(),
                                         TickingMode::SkipAhead);
    expectSameSnapshot(ref, skip);
}

TEST_P(SkipAheadDifferential, SwapWorkloadIsBitIdentical)
{
    const RunSnapshot ref = runWorkload(AppId::Swap, GetParam(),
                                        TickingMode::Reference);
    const RunSnapshot skip = runWorkload(AppId::Swap, GetParam(),
                                         TickingMode::SkipAhead);
    expectSameSnapshot(ref, skip);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SkipAheadDifferential,
    ::testing::ValuesIn(kAllConfigs.begin(), kAllConfigs.end()),
    [](const ::testing::TestParamInfo<Config> &info) {
        return std::string(configName(info.param));
    });

TEST(SkipAhead, ProfileSeparatesTheModes)
{
    const RunSnapshot ref = runWorkload(AppId::Update, Config::B,
                                        TickingMode::Reference);
    const RunSnapshot skip = runWorkload(AppId::Update, Config::B,
                                         TickingMode::SkipAhead);

    EXPECT_TRUE(ref.profile.referenceTicking);
    EXPECT_EQ(ref.profile.skipJumps, 0u);
    EXPECT_EQ(ref.profile.cyclesSkipped, 0u);
    EXPECT_EQ(ref.profile.hostTicks, ref.result.cycles);

    EXPECT_FALSE(skip.profile.referenceTicking);
    EXPECT_GT(skip.profile.skipJumps, 0u);
    EXPECT_GT(skip.profile.cyclesSkipped, 0u);
    // Every simulated cycle is either ticked or skipped.
    EXPECT_EQ(skip.profile.hostTicks + skip.profile.cyclesSkipped,
              skip.profile.cyclesSimulated);
    EXPECT_EQ(skip.profile.cyclesSimulated, skip.result.cycles);
}

/** CoreParams with the ticking mode pinned. */
CoreParams
pinned(TickingMode mode)
{
    CoreParams p;
    p.ticking = mode;
    return p;
}

TEST(SkipAhead, WaitAllKeysWakesAtTheSameCycle)
{
    // Regression: WAIT_ALL_KEYS parks the frontend until every EDE
    // key resolves; a skip target that overshoots the last producer's
    // completion would wake the consumer late (or trip the watchdog).
    // Both producers persist to NVM, so the dead window between the
    // waits is exactly the kind skip-ahead jumps.
    std::array<std::vector<Cycle>, 2> done;
    std::array<Cycle, 2> cycles{};
    const std::array<TickingMode, 2> modes{TickingMode::Reference,
                                           TickingMode::SkipAhead};
    for (std::size_t m = 0; m < modes.size(); ++m) {
        MiniSim sim(EnforceMode::IQ, pinned(modes[m]));
        Trace t;
        TraceBuilder b(t);
        b.str(2, 3, MiniSim::dramLine(0), 7);
        b.cvap(2, sim.nvmLine(0), {1, 0});
        b.cvap(3, sim.nvmLine(1), {7, 0});
        b.waitAllKeys();
        b.str(4, 5, MiniSim::dramLine(0), 1);
        cycles[m] = sim.run(t);
        done[m] = sim.core->completionCycles();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    ASSERT_EQ(done[0].size(), done[1].size());
    for (std::size_t i = 0; i < done[0].size(); ++i)
        EXPECT_EQ(done[0][i], done[1][i]) << "trace index " << i;
}

} // namespace
} // namespace ede
