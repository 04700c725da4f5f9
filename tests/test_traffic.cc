/**
 * @file
 * Tests for the open-loop traffic harness (src/traffic) and the
 * RunRequest face of the Session API.
 *
 * The load-bearing guarantees:
 *
 *  - exactPermille is the *exact* nearest-rank order statistic --
 *    checked against a sort-the-whole-vector reference on the
 *    adversarial populations (n = 1, all-ties, n < 100, where a
 *    histogram or an off-by-one rank would silently lie);
 *  - generators are deterministic in their seeds, and the workload
 *    is arrival-independent: changing only the offered load leaves
 *    the closed-loop machine run bit-identical while the open-loop
 *    tail moves (the overload knee the harness exists to expose);
 *  - latency records are bit-identical across ticking modes and
 *    across --jobs counts, so CI can cmp artifacts byte for byte;
 *  - malformed requests come back as structured SimErrors
 *    (RunRequestInvalid / CoreCountKeyExhausted), and request
 *    validation does not consume the single-shot session;
 *  - traffic cells survive the result-cache snapshot round trip and
 *    every traffic knob is fingerprint-relevant;
 *  - traffic::machinePlan resets exactly the replay-only knobs, so
 *    plans sharing it share one machine run: Session::runEach and
 *    the runner's machine-run groups give every cell the bytes of
 *    its standalone run, across --jobs, isolation, a partly warm
 *    cache, a malformed member and a crashed group.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <vector>

#include "common/random.hh"
#include "exp/fingerprint.hh"
#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "sim/session.hh"
#include "traffic/arrival.hh"
#include "traffic/latency.hh"
#include "traffic/opmix.hh"
#include "traffic/stream_mux.hh"

namespace ede {
namespace {

using traffic::ArrivalKind;
using traffic::ArrivalProcess;
using traffic::ArrivalSpec;
using traffic::LatencySummary;
using traffic::TrafficPlan;
using traffic::TrafficResult;
using traffic::ZipfGenerator;

// ---------------------------------------------------------------- //
// Exact percentiles
// ---------------------------------------------------------------- //

/** Sort-everything reference for the nearest-rank order statistic. */
Cycle
referencePermille(std::vector<Cycle> samples, unsigned permille)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    const std::size_t rank = static_cast<std::size_t>(std::ceil(
        static_cast<double>(n) * static_cast<double>(permille) /
        1000.0));
    return samples[rank - 1];
}

void
expectMatchesReference(const std::vector<Cycle> &samples)
{
    for (unsigned permille : {1u, 500u, 990u, 999u, 1000u}) {
        std::vector<Cycle> scratch = samples;
        EXPECT_EQ(traffic::exactPermille(scratch, permille),
                  referencePermille(samples, permille))
            << "n=" << samples.size() << " permille=" << permille;
    }
}

TEST(ExactPermille, SingleSampleIsEveryPercentile)
{
    expectMatchesReference({7});
}

TEST(ExactPermille, AllTiesCollapseToTheTie)
{
    expectMatchesReference(std::vector<Cycle>(250, 42));
}

TEST(ExactPermille, SmallPopulationsHitNearestRank)
{
    // Below 100 samples p99 and p99.9 both resolve to the max --
    // the nearest rank, not an interpolation.
    for (std::size_t n : {2u, 3u, 10u, 99u}) {
        std::vector<Cycle> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(static_cast<Cycle>(1000 - i * 7));
        expectMatchesReference(v);
        std::vector<Cycle> scratch = v;
        EXPECT_EQ(traffic::exactPermille(scratch, 999),
                  *std::max_element(v.begin(), v.end()));
    }
}

TEST(ExactPermille, RandomPopulationsMatchReference)
{
    Rng rng(2026);
    for (std::size_t n : {100u, 101u, 999u, 1000u, 1001u, 4096u}) {
        std::vector<Cycle> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(rng.below(500));  // Plenty of ties.
        expectMatchesReference(v);
    }
}

TEST(Summarize, DigestIsOrderInvariant)
{
    std::vector<Cycle> asc{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<Cycle> desc(asc.rbegin(), asc.rend());
    const LatencySummary a = traffic::summarize(asc);
    const LatencySummary b = traffic::summarize(desc);
    EXPECT_EQ(a.count, 10u);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
    EXPECT_EQ(a.max, 10u);
    EXPECT_EQ(a.sum, 55u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.5);
}

// ---------------------------------------------------------------- //
// Generators
// ---------------------------------------------------------------- //

TEST(ArrivalProcessTest, SameSeedSameSequence)
{
    ArrivalSpec spec;
    spec.meanGap = 500.0;
    ArrivalProcess a(spec, 7);
    ArrivalProcess b(spec, 7);
    ArrivalProcess c(spec, 8);
    bool anyDiffer = false;
    Cycle prev = 0;
    for (int i = 0; i < 256; ++i) {
        const Cycle t = a.next();
        EXPECT_EQ(t, b.next());
        anyDiffer |= t != c.next();
        EXPECT_GE(t, prev);  // Arrival clock is monotone.
        prev = t;
    }
    EXPECT_TRUE(anyDiffer);
}

TEST(ArrivalProcessTest, BurstyRunsHotterThanItsCalmMean)
{
    ArrivalSpec calm;
    calm.meanGap = 1000.0;
    ArrivalSpec bursty = calm;
    bursty.kind = ArrivalKind::Bursty;
    bursty.burstFactor = 8.0;
    bursty.pSwitch = 0.5;
    ArrivalProcess a(calm, 11);
    ArrivalProcess b(bursty, 11);
    Cycle lastCalm = 0;
    Cycle lastBursty = 0;
    for (int i = 0; i < 4096; ++i) {
        lastCalm = a.next();
        lastBursty = b.next();
    }
    // Spending half its time at 8x the rate, the MMPP must finish
    // its 4096 arrivals well before the pure-Poisson clock.
    EXPECT_LT(lastBursty, lastCalm);
}

TEST(ZipfGeneratorTest, DeterministicInBoundsAndSkewed)
{
    ZipfGenerator z1(256, 0.99);
    ZipfGenerator z2(256, 0.99);
    Rng r1(5), r2(5);
    std::uint64_t hot = 0;
    for (int i = 0; i < 8192; ++i) {
        const std::uint64_t k = z1.next(r1);
        EXPECT_EQ(k, z2.next(r2));
        ASSERT_LT(k, 256u);
        if (k == 0)
            ++hot;
    }
    // Rank 0 absorbs far more than the uniform 1/256 share.
    EXPECT_GT(hot, 8192u / 32);
}

TEST(ZipfGeneratorTest, ThetaZeroIsRoughlyUniform)
{
    ZipfGenerator z(16, 0.0);
    Rng rng(9);
    std::vector<unsigned> counts(16, 0);
    for (int i = 0; i < 16000; ++i)
        ++counts[z.next(rng)];
    for (unsigned c : counts) {
        EXPECT_GT(c, 600u);
        EXPECT_LT(c, 1400u);
    }
}

// ---------------------------------------------------------------- //
// Plan validation
// ---------------------------------------------------------------- //

TEST(ValidateTrafficPlan, RejectsEachMalformedKnob)
{
    const auto expectInvalid = [](TrafficPlan p, unsigned cores = 2) {
        const traffic::TrafficCheck check =
            traffic::validateTrafficPlan(p, Config::WB, cores);
        EXPECT_EQ(check.kind, SimErrorKind::RunRequestInvalid)
            << check.message;
    };
    TrafficPlan ok;
    EXPECT_TRUE(
        traffic::validateTrafficPlan(ok, Config::WB, 2).ok());

    TrafficPlan p = ok;
    p.streams = 0;
    expectInvalid(p);
    p = ok;
    p.txnsPerStream = 0;
    expectInvalid(p);
    p = ok;
    p.opsPerTxn = 0;
    expectInvalid(p);
    p = ok;
    p.mix.keys = 0;
    expectInvalid(p);
    p = ok;
    p.mix.keys = traffic::kTrafficMaxKeys + 1;
    expectInvalid(p);
    p = ok;
    p.mix.readFraction = 1.5;
    expectInvalid(p);
    p = ok;
    p.mix.zipfTheta = 1.0;  // Divergent harmonic case.
    expectInvalid(p);
    p = ok;
    p.arrival.meanGap = 0.0;
    expectInvalid(p);
    p = ok;
    p.arrival.burstFactor = 0.5;
    expectInvalid(p);
    p = ok;
    p.arrival.pSwitch = -0.1;
    expectInvalid(p);
    expectInvalid(ok, 0);
}

TEST(ValidateTrafficPlan, RejectsOverloadAndSplitKnobMisuse)
{
    const auto expectInvalid = [](TrafficPlan p) {
        const traffic::TrafficCheck check =
            traffic::validateTrafficPlan(p, Config::WB, 2);
        EXPECT_EQ(check.kind, SimErrorKind::RunRequestInvalid)
            << check.message;
        return check;
    };
    TrafficPlan ok;

    // A plan with fewer transactions than streams would leave some
    // stream empty; the detail names the contract.
    TrafficPlan p = ok;
    p.streams = 4;
    p.totalTxns = 3;
    const traffic::TrafficCheck starved = expectInvalid(p);
    EXPECT_NE(std::string(starved.message)
                  .find("more streams than transactions"),
              std::string::npos);
    p.totalTxns = 4;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());

    p = ok;
    p.totalTxns = -1;
    expectInvalid(p);
    p = ok;
    p.warmupPermille = 1000;  // Everything warmup = no steady state.
    expectInvalid(p);
    p = ok;
    p.latencyWindows = 0;
    expectInvalid(p);
    p = ok;
    p.latencyWindows = 65;
    expectInvalid(p);

    // Closed-pool arrivals.
    p = ok;
    p.arrival.kind = ArrivalKind::ClosedPool;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
    p.arrival.poolSize = 0;
    expectInvalid(p);
    p.arrival.poolSize = 2;
    p.arrival.thinkTime = -1.0;
    expectInvalid(p);

    // Retry/degrade knobs require an admission policy to act under.
    p = ok;
    p.policy.retryBudget = 4;
    expectInvalid(p);
    p = ok;
    p.policy.degrade = true;
    expectInvalid(p);

    // Each policy's own parameters.
    p = ok;
    p.policy.admission = traffic::AdmissionKind::Deadline;
    p.policy.deadline = 0;
    expectInvalid(p);
    p.policy.deadline = 1000;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
    p.policy.queueDepth = 0;
    expectInvalid(p);
    p = ok;
    p.policy.admission = traffic::AdmissionKind::TokenBucket;
    p.policy.tokenRatePerKCycle = 0;
    p.policy.tokenBurst = 4;
    expectInvalid(p);
    p.policy.tokenRatePerKCycle = 8;
    p.policy.tokenBurst = 0;
    expectInvalid(p);
    p.policy.tokenBurst = 4;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
    p.policy.retryBudget = 2;
    p.policy.retryBackoffBase = 0;
    expectInvalid(p);
    p.policy.retryBackoffBase = 512;
    p.policy.retryBackoffCap = 256;  // Cap below base.
    expectInvalid(p);

    // Hysteresis needs recover < degrade.
    p = ok;
    p.policy.admission = traffic::AdmissionKind::DropTail;
    p.policy.degrade = true;
    p.policy.shedWindow = 0;
    expectInvalid(p);
    p.policy.shedWindow = 16;
    p.policy.degradePermille = 0;
    expectInvalid(p);
    p.policy.degradePermille = 500;
    p.policy.recoverPermille = 500;
    expectInvalid(p);
    p.policy.recoverPermille = 100;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
}

TEST(ValidateTrafficPlan, TotalTxnsSplitsRoundRobin)
{
    TrafficPlan p;
    p.streams = 3;
    p.totalTxns = 8;
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 0), 3u);
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 1), 3u);
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 2), 2u);
    p.totalTxns = 0;  // Fall back to the per-stream count.
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 2),
              static_cast<std::uint64_t>(p.txnsPerStream));
}

TEST(ValidateTrafficPlan, EdeConfigsAreKeyLimited)
{
    TrafficPlan plan;
    const traffic::TrafficCheck ede = traffic::validateTrafficPlan(
        plan, Config::WB, traffic::kMaxTrafficEdeCores + 1);
    EXPECT_EQ(ede.kind, SimErrorKind::CoreCountKeyExhausted);
    // Fence-based configs spend no keys, so any core count is fine.
    EXPECT_TRUE(traffic::validateTrafficPlan(
                    plan, Config::B,
                    traffic::kMaxTrafficEdeCores + 1)
                    .ok());
    EXPECT_TRUE(traffic::validateTrafficPlan(
                    plan, Config::WB, traffic::kMaxTrafficEdeCores)
                    .ok());
}

// ---------------------------------------------------------------- //
// Session / RunRequest
// ---------------------------------------------------------------- //

TrafficPlan
tinyPlan(double meanGap = 2000.0)
{
    TrafficPlan plan;
    plan.streams = 2;
    plan.txnsPerStream = 12;
    plan.opsPerTxn = 2;
    plan.mix.keys = 32;
    plan.arrival.meanGap = meanGap;
    return plan;
}

TEST(SessionRequest, EmptyRequestIsInvalidAndDoesNotConsume)
{
    Session s(SimConfig::paper(Config::WB));
    const SimResult bad = s.run(RunRequest{});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_FALSE(s.ran());

    // The rejection left the session fresh: a valid request runs.
    const SimResult good = s.run(RunRequest::ofTraffic(tinyPlan()));
    EXPECT_TRUE(good.ok());
    EXPECT_TRUE(s.ran());
}

TEST(SessionRequest, TraceCountMustMatchCoreCount)
{
    Session s(SimConfig::paper(Config::B).withCoreCount(2));
    Trace t;
    TraceBuilder(t).movImm(1, 7);
    const SimResult r = s.run(RunRequest::of(t));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_NE(r.error.detail.find("1 trace"), std::string::npos);
}

TEST(SessionRequest, MalformedTrafficPlanReportsTheKnob)
{
    Session s(SimConfig::paper(Config::WB));
    TrafficPlan plan = tinyPlan();
    plan.mix.zipfTheta = 1.0;
    const SimResult r = s.run(RunRequest::ofTraffic(plan));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_NE(r.error.detail.find("zipf theta"), std::string::npos);
}

TEST(SessionRequest, TrafficRunPopulatesLatencyRecords)
{
    const TrafficPlan plan = tinyPlan();
    Session s(SimConfig::paper(Config::WB).withCoreCount(2));
    const SimResult r = s.run(RunRequest::ofTraffic(plan));
    ASSERT_TRUE(r.ok());

    const TrafficResult &t = r.stats.traffic;
    EXPECT_TRUE(t.enabled);
    const std::uint64_t txns =
        static_cast<std::uint64_t>(plan.streams) *
        static_cast<std::uint64_t>(plan.txnsPerStream);
    EXPECT_EQ(t.open.count, txns);
    EXPECT_EQ(t.service.count, txns);
    ASSERT_EQ(t.streams.size(), plan.streams);
    for (unsigned i = 0; i < plan.streams; ++i) {
        EXPECT_EQ(t.streams[i].stream, i);
        EXPECT_EQ(t.streams[i].core, i % 2);
        EXPECT_EQ(t.streams[i].open.count,
                  static_cast<std::uint64_t>(plan.txnsPerStream));
    }
    // Order statistics are ordered; open >= service pointwise, so
    // the open mean dominates the service mean.
    EXPECT_LE(t.open.p50, t.open.p99);
    EXPECT_LE(t.open.p99, t.open.p999);
    EXPECT_LE(t.open.p999, t.open.max);
    EXPECT_GE(t.open.mean(), t.service.mean());

    // A plain trace run must NOT carry traffic records.
    Session plain(SimConfig::paper(Config::WB));
    Trace trace;
    TraceBuilder(trace).movImm(1, 7);
    const SimResult pr = plain.run(RunRequest::of(trace));
    ASSERT_TRUE(pr.ok());
    EXPECT_FALSE(pr.stats.traffic.enabled);
}

void
expectSameSummary(const LatencySummary &a, const LatencySummary &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.sum, b.sum);
}

/** The whole snapshot of @p stats (the cache's serialization). */
std::string
snapshot(const RunResult &stats)
{
    exp::ExperimentCell cell;
    cell.point.traffic = true;
    cell.result = stats;
    return exp::serializeCell(cell);
}

/** As snapshot(), with the replay's traffic records cleared. */
std::string
machineSnapshot(RunResult stats)
{
    stats.traffic = TrafficResult{};
    return snapshot(stats);
}

/**
 * tinyPlan variants that differ only in replay-only knobs: every
 * arrival kind under every admission kind, at a light or a heavy
 * load, with assorted warmup, window and retry settings.
 */
std::vector<TrafficPlan>
replayVariants()
{
    using traffic::AdmissionKind;
    std::vector<TrafficPlan> plans;
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::ClosedPool}) {
        for (AdmissionKind admission :
             {AdmissionKind::None, AdmissionKind::DropTail,
              AdmissionKind::Deadline, AdmissionKind::TokenBucket}) {
            const unsigned n = static_cast<unsigned>(plans.size());
            TrafficPlan plan = tinyPlan(n % 2 ? 60.0 : 60000.0);
            plan.arrival.kind = kind;
            plan.arrival.poolSize = 1 + n % 3;
            plan.arrival.thinkTime = 100.0 * n;
            plan.warmupPermille = 125 * (n % 4);
            plan.latencyWindows = 1 + n % 8;
            plan.policy.admission = admission;
            plan.policy.queueDepth = 2 + n % 5;
            plan.policy.deadline = 1500;
            plan.policy.tokenRatePerKCycle = 2;
            plan.policy.tokenBurst = 3;
            if (admission != AdmissionKind::None) {
                plan.policy.retryBudget = n % 3;
                plan.policy.degrade = n % 2 == 1;
            }
            plans.push_back(plan);
        }
    }
    return plans;
}

/**
 * The knee invariant, at Session level: plans that share a
 * traffic::machinePlan drive identical machine runs -- the whole
 * RunResult bar the traffic records -- under every arrival process
 * and admission policy, while the open-loop tail sees the load.
 */
TEST(SessionRequest, OfferedLoadMovesOpenTailButNotTheMachine)
{
    const auto runAlone = [](const TrafficPlan &plan) {
        Session s(SimConfig::paper(Config::WB).withCoreCount(2));
        const SimResult r = s.run(RunRequest::ofTraffic(plan));
        EXPECT_TRUE(r.ok());
        return r;
    };
    const std::vector<TrafficPlan> plans = replayVariants();
    const SimResult first = runAlone(plans.front());
    for (const TrafficPlan &plan : plans) {
        ASSERT_EQ(traffic::machinePlan(plan),
                  traffic::machinePlan(plans.front()));
        const SimResult r = runAlone(plan);
        SCOPED_TRACE(::testing::Message()
                     << traffic::arrivalKindName(plan.arrival.kind)
                     << "/"
                     << traffic::admissionKindName(
                            plan.policy.admission));
        EXPECT_EQ(machineSnapshot(r.stats),
                  machineSnapshot(first.stats));
        // The closed-loop service column is read off the machine's
        // completion stamps alone, under any arrivals or policy
        // (fig_traffic --check-shed's probe relies on it).
        EXPECT_TRUE(r.stats.traffic.enabled);
        expectSameSummary(r.stats.traffic.service,
                          first.stats.traffic.service);
    }

    // ...while the open-loop tail sees the queueing delay.
    const SimResult light = runAlone(tinyPlan(60000.0));
    const SimResult heavy = runAlone(tinyPlan(60.0));
    EXPECT_EQ(machineSnapshot(light.stats), machineSnapshot(heavy.stats));
    EXPECT_EQ(light.stats.traffic.service.p50,
              heavy.stats.traffic.service.p50);
    EXPECT_EQ(light.stats.traffic.service.max,
              heavy.stats.traffic.service.max);
    expectSameSummary(light.stats.traffic.service,
                      heavy.stats.traffic.service);
    EXPECT_GT(heavy.stats.traffic.open.p99,
              light.stats.traffic.open.p99);
}

TEST(SessionRequest, StampArrivalsRedrawsWhatABuildDraws)
{
    const std::vector<TrafficPlan> plans = replayVariants();
    traffic::TrafficWorkload shared = traffic::buildTrafficWorkload(
        traffic::machinePlan(plans.front()), Config::WB, 2);
    for (const TrafficPlan &plan : plans) {
        const traffic::TrafficWorkload fresh =
            traffic::buildTrafficWorkload(plan, Config::WB, 2);
        traffic::stampArrivals(plan, shared);
        ASSERT_EQ(shared.txns.size(), fresh.txns.size());
        for (std::size_t i = 0; i < fresh.txns.size(); ++i) {
            const traffic::TxnRecord &a = shared.txns[i];
            const traffic::TxnRecord &b = fresh.txns[i];
            EXPECT_EQ(a.arrival, b.arrival) << i;
            EXPECT_EQ(a.think, b.think) << i;
            EXPECT_EQ(a.kind, b.kind) << i;
            EXPECT_EQ(a.first, b.first) << i;
            EXPECT_EQ(a.last, b.last) << i;
        }
        ASSERT_EQ(shared.traces.size(), fresh.traces.size());
        for (std::size_t c = 0; c < fresh.traces.size(); ++c)
            EXPECT_EQ(shared.traces[c].size(), fresh.traces[c].size());
    }
}

TEST(SessionRequest, RunEachReplaysOneMachineRunPerPlan)
{
    const SimConfig cfg = SimConfig::paper(Config::WB).withCoreCount(2);
    const std::vector<TrafficPlan> plans = replayVariants();
    Session s(cfg);
    const std::vector<SimResult> shared =
        s.runEach(RunRequest::ofTraffic(plans));
    ASSERT_EQ(shared.size(), plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        ASSERT_TRUE(shared[i].ok()) << i;
        Session alone(cfg);
        const SimResult r = alone.run(RunRequest::ofTraffic(plans[i]));
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(snapshot(shared[i].stats), snapshot(r.stats)) << i;
        // The one run's host cost is booked once, on the first plan.
        EXPECT_EQ(shared[i].profile.cyclesSimulated,
                  i == 0 ? r.stats.cycles : 0u)
            << i;
    }
    EXPECT_TRUE(s.ran());
}

TEST(SessionRequest, RunEachRejectsPlansWithDifferentMachines)
{
    std::vector<TrafficPlan> plans = replayVariants();
    plans.push_back(tinyPlan());
    plans.back().mix.keys += 1;
    Session s(SimConfig::paper(Config::WB).withCoreCount(2));
    const std::vector<SimResult> results =
        s.runEach(RunRequest::ofTraffic(plans));
    ASSERT_EQ(results.size(), plans.size());
    for (const SimResult &r : results) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
        EXPECT_NE(r.error.detail.find("machinePlan"), std::string::npos);
    }
    EXPECT_FALSE(s.ran());
}

TEST(SessionRequest, RunEachRejectsTheRequestOnAMalformedPlan)
{
    const SimConfig cfg = SimConfig::paper(Config::WB).withCoreCount(2);
    std::vector<TrafficPlan> plans{tinyPlan(60000.0), tinyPlan(60.0),
                                   tinyPlan(60.0)};
    plans[1].latencyWindows = 0;

    // run() has one result, so it turns a multi-plan request away
    // without consuming the session.
    Session s(cfg);
    const SimResult one = s.run(RunRequest::ofTraffic(plans));
    ASSERT_FALSE(one.ok());
    EXPECT_EQ(one.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_NE(one.error.detail.find("runEach"), std::string::npos);
    EXPECT_FALSE(s.ran());

    // One malformed plan rejects every plan with its own fault, and
    // no plan sees the machine.
    const std::vector<SimResult> results =
        s.runEach(RunRequest::ofTraffic(plans));
    ASSERT_EQ(results.size(), 3u);
    for (const SimResult &r : results) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
        EXPECT_NE(r.error.detail.find("latency windows"),
                  std::string::npos);
        EXPECT_FALSE(r.stats.traffic.enabled);
        EXPECT_EQ(r.profile.cyclesSimulated, 0u);
    }
    EXPECT_FALSE(s.ran());

    // The request as corrected runs on the same session.
    plans[1].latencyWindows = 4;
    const std::vector<SimResult> fixed =
        s.runEach(RunRequest::ofTraffic(plans));
    for (const SimResult &r : fixed)
        EXPECT_TRUE(r.ok());
    EXPECT_TRUE(s.ran());
}

/**
 * A NaN knob is not equal to itself, so the plans' machinePlan
 * check must not run before validation: the knob's own message
 * comes back, for a lone plan and for a group.
 */
TEST(SessionRequest, NanReadFractionReportsTheKnob)
{
    TrafficPlan plan = tinyPlan();
    plan.mix.readFraction = std::nan("");
    Session s(SimConfig::paper(Config::WB).withCoreCount(2));
    const SimResult r = s.run(RunRequest::ofTraffic(plan));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_NE(r.error.detail.find("read fraction"), std::string::npos)
        << r.error.detail;

    const std::vector<SimResult> group =
        s.runEach(RunRequest::ofTraffic({tinyPlan(60.0), plan}));
    ASSERT_EQ(group.size(), 2u);
    for (const SimResult &g : group) {
        ASSERT_FALSE(g.ok());
        EXPECT_NE(g.error.detail.find("read fraction"),
                  std::string::npos)
            << g.error.detail;
    }
    EXPECT_FALSE(s.ran());
}

TEST(SessionRequest, LatencyRecordsAreTickerInvariant)
{
    const auto runWith = [](TickingMode mode) {
        SimConfig cfg = SimConfig::paper(Config::WB);
        CoreParams core = cfg.params().core;
        core.ticking = mode;
        Session s(cfg.withCore(core).withCoreCount(2));
        const SimResult r =
            s.run(RunRequest::ofTraffic(tinyPlan(500.0)));
        EXPECT_TRUE(r.ok());
        return r.stats.traffic;
    };
    const TrafficResult skip = runWith(TickingMode::SkipAhead);
    const TrafficResult ref = runWith(TickingMode::Reference);
    expectSameSummary(skip.open, ref.open);
    expectSameSummary(skip.service, ref.service);
    ASSERT_EQ(skip.streams.size(), ref.streams.size());
    for (std::size_t i = 0; i < skip.streams.size(); ++i) {
        expectSameSummary(skip.streams[i].open, ref.streams[i].open);
        expectSameSummary(skip.streams[i].service,
                          ref.streams[i].service);
    }
}

// ---------------------------------------------------------------- //
// Experiment layer
// ---------------------------------------------------------------- //

/** A 2-core traffic point of @p plan under @p cfg. */
exp::ExperimentPoint
pointOf(Config cfg, const TrafficPlan &plan, const std::string &label)
{
    exp::ExperimentPoint pt;
    pt.label = label;
    pt.config = cfg;
    pt.simParams = SimConfig::paper(cfg).withCoreCount(2).params();
    pt.traffic = true;
    pt.trafficPlan = plan;
    return pt;
}

exp::ExperimentPoint
trafficPoint(double gap, const std::string &label)
{
    return pointOf(Config::WB, tinyPlan(gap), label);
}

TEST(TrafficExp, ParallelCellsAreBitIdenticalToSerial)
{
    exp::ExperimentPlan plan;
    plan.add(trafficPoint(6000.0, "WB/g6000"));
    plan.add(trafficPoint(60.0, "WB/g60"));

    exp::RunnerOptions serial;
    serial.jobs = 1;
    serial.printSummary = false;
    exp::RunnerOptions parallel = serial;
    parallel.jobs = 8;

    const exp::ExperimentResults a = exp::runPlan(plan, serial);
    const exp::ExperimentResults b = exp::runPlan(plan, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // serializeCell covers the whole persisted snapshot,
        // latency records included.
        EXPECT_EQ(exp::serializeCell(a.cells()[i]),
                  exp::serializeCell(b.cells()[i]));
    }
    EXPECT_TRUE(a.cells()[0].result.traffic.enabled);
}

TEST(TrafficExp, SnapshotRoundTripsTrafficSection)
{
    exp::ExperimentPlan plan;
    plan.add(trafficPoint(500.0, "WB/g500"));
    exp::RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const exp::ExperimentResults results = exp::runPlan(plan, opt);
    const exp::ExperimentCell &cell = results.cells().front();
    ASSERT_TRUE(cell.result.traffic.enabled);

    const auto back = exp::deserializeCell(
        exp::serializeCell(cell), cell.point, cell.fingerprint);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(exp::serializeCell(*back), exp::serializeCell(cell));
    EXPECT_TRUE(back->result.traffic.enabled);
    expectSameSummary(back->result.traffic.open,
                      cell.result.traffic.open);
    ASSERT_EQ(back->result.traffic.streams.size(),
              cell.result.traffic.streams.size());
}

TEST(TrafficExp, EveryTrafficKnobIsFingerprintRelevant)
{
    const exp::ExperimentPoint base = trafficPoint(500.0, "base");
    const std::uint64_t fp = exp::fingerprintPoint(base);

    exp::ExperimentPoint p = base;
    p.traffic = false;
    EXPECT_NE(exp::fingerprintPoint(p), fp);

    p = base;
    p.trafficPlan.arrival.meanGap = 501.0;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.arrival.kind = ArrivalKind::Bursty;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.streams += 1;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.txnsPerStream += 1;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.opsPerTxn += 1;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.mix.zipfTheta = 0.5;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.mix.readFraction = 0.25;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.mix.keys = 64;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.seed = 43;
    EXPECT_NE(exp::fingerprintPoint(p), fp);

    // And an identical copy collides, or the cache never hits.
    EXPECT_EQ(exp::fingerprintPoint(trafficPoint(500.0, "base")), fp);
}

TEST(TrafficExp, EveryOverloadKnobIsFingerprintRelevant)
{
    const exp::ExperimentPoint base = trafficPoint(500.0, "base");
    const std::uint64_t fp = exp::fingerprintPoint(base);
    const auto differs = [&](auto mutate) {
        exp::ExperimentPoint p = base;
        mutate(p.trafficPlan);
        EXPECT_NE(exp::fingerprintPoint(p), fp);
    };
    differs([](TrafficPlan &t) { t.totalTxns = 24; });
    differs([](TrafficPlan &t) { t.warmupPermille = 250; });
    differs([](TrafficPlan &t) { t.latencyWindows = 16; });
    differs([](TrafficPlan &t) {
        t.arrival.kind = ArrivalKind::ClosedPool;
    });
    differs([](TrafficPlan &t) { t.arrival.poolSize = 8; });
    differs([](TrafficPlan &t) { t.arrival.thinkTime = 1234.0; });
    differs([](TrafficPlan &t) {
        t.policy.admission = traffic::AdmissionKind::DropTail;
    });
    differs([](TrafficPlan &t) { t.policy.queueDepth = 17; });
    differs([](TrafficPlan &t) { t.policy.deadline = 9000; });
    differs([](TrafficPlan &t) { t.policy.tokenRatePerKCycle = 3; });
    differs([](TrafficPlan &t) { t.policy.tokenBurst = 3; });
    differs([](TrafficPlan &t) { t.policy.retryBudget = 3; });
    differs([](TrafficPlan &t) { t.policy.retryBackoffBase = 128; });
    differs([](TrafficPlan &t) { t.policy.retryBackoffCap = 4096; });
    differs([](TrafficPlan &t) { t.policy.degrade = true; });
    differs([](TrafficPlan &t) { t.policy.shedWindow = 64; });
    differs([](TrafficPlan &t) { t.policy.degradePermille = 700; });
    differs([](TrafficPlan &t) { t.policy.recoverPermille = 50; });
}

/** The runner's machine key: the point under its machinePlan. */
std::uint64_t
machineKey(exp::ExperimentPoint point)
{
    point.trafficPlan = traffic::machinePlan(point.trafficPlan);
    return exp::fingerprintPoint(point);
}

TEST(TrafficExp, MachineKeyMovesWithMachineKnobsOnly)
{
    const exp::ExperimentPoint base = trafficPoint(500.0, "base");
    const std::uint64_t key = machineKey(base);

    // Every replay-only knob: a real change of the cell (its
    // fingerprint moves), but the same machine run.
    const auto sameMachine = [&](auto mutate) {
        exp::ExperimentPoint p = base;
        mutate(p.trafficPlan);
        EXPECT_NE(exp::fingerprintPoint(p), exp::fingerprintPoint(base));
        EXPECT_EQ(machineKey(p), key);
    };
    sameMachine([](TrafficPlan &t) {
        t.arrival.kind = ArrivalKind::Bursty;
    });
    sameMachine([](TrafficPlan &t) {
        t.arrival.kind = ArrivalKind::ClosedPool;
    });
    sameMachine([](TrafficPlan &t) { t.arrival.meanGap = 501.0; });
    sameMachine([](TrafficPlan &t) { t.arrival.burstFactor = 3.0; });
    sameMachine([](TrafficPlan &t) { t.arrival.pSwitch = 0.5; });
    sameMachine([](TrafficPlan &t) { t.arrival.poolSize = 8; });
    sameMachine([](TrafficPlan &t) { t.arrival.thinkTime = 1234.0; });
    sameMachine([](TrafficPlan &t) { t.warmupPermille = 250; });
    sameMachine([](TrafficPlan &t) { t.latencyWindows = 16; });
    sameMachine([](TrafficPlan &t) {
        t.policy.admission = traffic::AdmissionKind::DropTail;
    });
    sameMachine([](TrafficPlan &t) { t.policy.queueDepth = 17; });
    sameMachine([](TrafficPlan &t) { t.policy.deadline = 9000; });
    sameMachine([](TrafficPlan &t) { t.policy.tokenRatePerKCycle = 3; });
    sameMachine([](TrafficPlan &t) { t.policy.tokenBurst = 3; });
    sameMachine([](TrafficPlan &t) { t.policy.retryBudget = 3; });
    sameMachine([](TrafficPlan &t) { t.policy.retryBackoffBase = 128; });
    sameMachine([](TrafficPlan &t) { t.policy.retryBackoffCap = 4096; });
    sameMachine([](TrafficPlan &t) { t.policy.degrade = true; });
    sameMachine([](TrafficPlan &t) { t.policy.shedWindow = 64; });
    sameMachine([](TrafficPlan &t) { t.policy.degradePermille = 700; });
    sameMachine([](TrafficPlan &t) { t.policy.recoverPermille = 50; });

    // Every other plan field shapes the traces.
    const auto otherMachine = [&](auto mutate) {
        exp::ExperimentPoint p = base;
        mutate(p.trafficPlan);
        EXPECT_NE(machineKey(p), key);
    };
    otherMachine([](TrafficPlan &t) { t.streams += 1; });
    otherMachine([](TrafficPlan &t) { t.txnsPerStream += 1; });
    otherMachine([](TrafficPlan &t) { t.totalTxns = 24; });
    otherMachine([](TrafficPlan &t) { t.opsPerTxn += 1; });
    otherMachine([](TrafficPlan &t) { t.mix.readFraction = 0.25; });
    otherMachine([](TrafficPlan &t) { t.mix.zipfTheta = 0.5; });
    otherMachine([](TrafficPlan &t) { t.mix.keys = 64; });
    otherMachine([](TrafficPlan &t) { t.seed = 43; });

    // And so does every machine input outside the plan: the point
    // kind, the configuration and every hashed SimParams field.
    exp::ExperimentPoint p = base;
    p.traffic = false;
    EXPECT_NE(machineKey(p), key);
    p = base;
    p.config = Config::IQ;
    p.simParams = SimConfig::paper(Config::IQ).withCoreCount(2).params();
    EXPECT_NE(machineKey(p), key);

    std::vector<std::function<void(SimParams &)>> tweaks{
        [](SimParams &s) { s.coreCount += 1; },
        [](SimParams &s) { s.core.fetchWidth += 1; },
        [](SimParams &s) { s.core.issueWidth += 1; },
        [](SimParams &s) { s.core.retireWidth += 1; },
        [](SimParams &s) { s.core.robSize += 1; },
        [](SimParams &s) { s.core.iqSize += 1; },
        [](SimParams &s) { s.core.lqSize += 1; },
        [](SimParams &s) { s.core.sqSize += 1; },
        [](SimParams &s) { s.core.wbSize += 1; },
        [](SimParams &s) { s.core.wbDrainPerCycle += 1; },
        [](SimParams &s) { s.core.mispredictPenalty += 1; },
        [](SimParams &s) { s.core.aluUnits += 1; },
        [](SimParams &s) { s.core.mulUnits += 1; },
        [](SimParams &s) { s.core.branchUnits += 1; },
        [](SimParams &s) { s.core.loadUnits += 1; },
        [](SimParams &s) { s.core.storeUnits += 1; },
        [](SimParams &s) { s.core.aluLatency += 1; },
        [](SimParams &s) { s.core.mulLatency += 1; },
        [](SimParams &s) { s.core.branchLatency += 1; },
        [](SimParams &s) { s.core.agenLatency += 1; },
        [](SimParams &s) { s.core.forwardLatency += 1; },
        [](SimParams &s) { s.core.ede = EnforceMode::IQ; },
        [](SimParams &s) {
            s.core.dmbStCoversCvap = !s.core.dmbStCoversCvap;
        },
        [](SimParams &s) { s.core.predictorEntries += 1; },
        [](SimParams &s) { s.core.watchdogCycles += 1; },
        [](SimParams &s) { s.core.maxCycles += 1; },
        [](SimParams &s) { s.core.edkStallCycles += 1; },
        [](SimParams &s) {
            s.core.edkRecoveryMode = EdkRecoveryMode::Degrade;
        },
        [](SimParams &s) { s.mem.dram.banks += 1; },
        [](SimParams &s) { s.mem.dram.rowBytes += 1; },
        [](SimParams &s) { s.mem.dram.rowHit += 1; },
        [](SimParams &s) { s.mem.dram.rowMiss += 1; },
        [](SimParams &s) { s.mem.dram.busBurst += 1; },
        [](SimParams &s) { s.mem.dram.queueDepth += 1; },
        [](SimParams &s) { s.mem.nvm.readLatency += 1; },
        [](SimParams &s) { s.mem.nvm.writeLatency += 1; },
        [](SimParams &s) { s.mem.nvm.bufferAccept += 1; },
        [](SimParams &s) { s.mem.nvm.bufferReadHit += 1; },
        [](SimParams &s) { s.mem.nvm.lineBytes += 1; },
        [](SimParams &s) { s.mem.nvm.bufferSlots += 1; },
        [](SimParams &s) { s.mem.nvm.mediaWriters += 1; },
        [](SimParams &s) { s.mem.nvm.mediaReaders += 1; },
        [](SimParams &s) { s.mem.nvm.readQueueDepth += 1; },
        [](SimParams &s) { s.mem.map.dramBytes += 1; },
        [](SimParams &s) { s.mem.map.nvmBytes += 1; },
    };
    for (CacheParams MemSystemParams::*cache :
         {&MemSystemParams::l1d, &MemSystemParams::l2,
          &MemSystemParams::l3}) {
        const auto bump = [cache](auto field) {
            return [=](SimParams &s) { (s.mem.*cache).*field += 1; };
        };
        tweaks.push_back(bump(&CacheParams::sizeBytes));
        tweaks.push_back(bump(&CacheParams::assoc));
        tweaks.push_back(bump(&CacheParams::lineBytes));
        tweaks.push_back(bump(&CacheParams::latency));
        tweaks.push_back(bump(&CacheParams::ports));
        tweaks.push_back(bump(&CacheParams::mshrs));
        tweaks.push_back(bump(&CacheParams::inputQueue));
    }
    for (std::size_t i = 0; i < tweaks.size(); ++i) {
        p = base;
        tweaks[i](p.simParams);
        EXPECT_NE(machineKey(p), key) << "SimParams tweak " << i;
    }
}

// ---------------------------------------------------------------- //
// Shared machine runs in the experiment runner
// ---------------------------------------------------------------- //

/** A scratch directory under the build tree, wiped per use. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "traffic_test_scratch/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Two configurations, interleaved in plan order, each a mix of
 * arrival kinds, warmup and window settings and policies: two
 * machine-run groups of six cells.
 */
exp::ExperimentPlan
mixedPlan()
{
    const std::vector<TrafficPlan> variants = replayVariants();
    exp::ExperimentPlan plan;
    for (std::size_t k = 0; k < variants.size(); k += 2) {
        for (Config cfg : {Config::B, Config::WB}) {
            plan.add(pointOf(cfg, variants[k],
                             std::string(configName(cfg)) + "/v" +
                                 std::to_string(k)));
        }
    }
    return plan;
}

exp::RunnerOptions
quietOptions(unsigned jobs)
{
    exp::RunnerOptions opt;
    opt.jobs = jobs;
    opt.printSummary = false;
    return opt;
}

exp::RunnerOptions
isolatedOptions()
{
    exp::RunnerOptions opt = quietOptions(2);
    opt.isolation = exp::IsolationMode::Process;
    opt.retry.maxAttempts = 2;
    opt.retry.backoffBaseMs = 1;
    opt.retry.backoffMaxMs = 2;
    return opt;
}

/** @p point simulated on its own through Session::run. */
std::string
standaloneSnapshot(const exp::ExperimentPoint &point)
{
    Session s(SimConfig::paper(point.config)
                  .withCore(point.simParams.core)
                  .withMem(point.simParams.mem)
                  .withCoreCount(point.simParams.coreCount));
    const SimResult r = s.run(RunRequest::ofTraffic(point.trafficPlan));
    EXPECT_TRUE(r.ok()) << point.label;
    exp::ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = exp::fingerprintPoint(point);
    cell.opCycles = r.stats.cycles;
    cell.result = r.stats;
    return exp::serializeCell(cell);
}

/** Freshly simulated cells per configuration with a host profile. */
std::map<Config, int>
profiledCells(const exp::ExperimentResults &results)
{
    std::map<Config, int> count;
    for (const exp::ExperimentCell &c : results.cells()) {
        if (!c.fromCache && !c.failed)
            count[c.point.config] += c.profile.cyclesSimulated > 0;
    }
    return count;
}

TEST(TrafficGroups, EveryCellMatchesItsStandaloneRun)
{
    const exp::ExperimentPlan plan = mixedPlan();
    const exp::ExperimentResults results =
        exp::runPlan(plan, quietOptions(1));
    ASSERT_TRUE(results.allOk());
    EXPECT_EQ(results.simulated(), plan.size());
    EXPECT_EQ(results.machineRuns(), 2u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const exp::ExperimentCell &cell = results.cells()[i];
        EXPECT_EQ(exp::serializeCell(cell),
                  standaloneSnapshot(plan.points()[i]))
            << cell.point.label;
        // The leaders are the lowest plan indices: B/v0 and WB/v0.
        EXPECT_EQ(cell.sharedRun, i >= 2) << cell.point.label;
        EXPECT_EQ(cell.profile.cyclesSimulated > 0, i < 2)
            << cell.point.label;
    }
    const std::map<Config, int> profiled = profiledCells(results);
    EXPECT_EQ(profiled.at(Config::B), 1);
    EXPECT_EQ(profiled.at(Config::WB), 1);
}

TEST(TrafficGroups, JobCountsAndIsolationGiveIdenticalCells)
{
    const exp::ExperimentPlan plan = mixedPlan();
    const exp::ExperimentResults serial =
        exp::runPlan(plan, quietOptions(1));
    const exp::ExperimentResults parallel =
        exp::runPlan(plan, quietOptions(8));
    const exp::ExperimentResults isolated =
        exp::runPlan(plan, isolatedOptions());
    ASSERT_TRUE(isolated.allOk());
    for (const exp::ExperimentResults *other : {&parallel, &isolated}) {
        EXPECT_EQ(other->machineRuns(), 2u);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            EXPECT_EQ(exp::serializeCell(serial.cells()[i]),
                      exp::serializeCell(other->cells()[i]))
                << plan.points()[i].label;
        }
    }
}

TEST(TrafficGroups, PartlyCachedGroupsStillSimulateOnce)
{
    const exp::ExperimentPlan plan = mixedPlan();
    const exp::ExperimentResults cold =
        exp::runPlan(plan, quietOptions(1));

    // Pre-store every other cell of each group, leaders included.
    exp::RunnerOptions opt = quietOptions(2);
    opt.cacheDir = scratchDir("partly_cached");
    exp::ExperimentPlan half;
    for (std::size_t i = 0; i < plan.size(); i += 4) {
        half.add(plan.points()[i]);
        half.add(plan.points()[i + 1]);
    }
    ASSERT_TRUE(exp::runPlan(half, opt).allOk());

    const exp::ExperimentResults warm = exp::runPlan(plan, opt);
    EXPECT_EQ(warm.cacheHits(), half.size());
    EXPECT_EQ(warm.simulated(), plan.size() - half.size());
    EXPECT_EQ(warm.machineRuns(), 2u);
    const std::map<Config, int> profiled = profiledCells(warm);
    EXPECT_EQ(profiled.at(Config::B), 1);
    EXPECT_EQ(profiled.at(Config::WB), 1);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(exp::serializeCell(warm.cells()[i]),
                  exp::serializeCell(cold.cells()[i]))
            << plan.points()[i].label;
    }
}

/** mixedPlan with WB/v4's latency windows made malformed. */
exp::ExperimentPlan
planWithMalformedMember(std::size_t &bad)
{
    const exp::ExperimentPlan mixed = mixedPlan();
    exp::ExperimentPlan plan;
    for (exp::ExperimentPoint point : mixed.points()) {
        if (point.label == "WB/v4") {
            point.trafficPlan.latencyWindows = 0;
            bad = plan.size();
        }
        plan.add(point);
    }
    return plan;
}

TEST(TrafficGroupsDeathTest, MalformedReplayKnobFailsInlineNamingItsPoint)
{
    std::size_t bad = 0;
    const exp::ExperimentPlan plan = planWithMalformedMember(bad);
    // It shares its siblings' machine key, yet fails on its own.
    EXPECT_EQ(machineKey(plan.points()[bad]),
              machineKey(plan.points()[1]));
    EXPECT_DEATH(exp::runPlan(plan, quietOptions(1)),
                 "traffic cell 'WB/v4' aborted: .*latency windows");
}

TEST(TrafficGroups, MalformedReplayKnobIsQuarantinedAlone)
{
    std::size_t bad = 0;
    const exp::ExperimentPlan plan = planWithMalformedMember(bad);
    const exp::ExperimentResults results =
        exp::runPlan(plan, isolatedOptions());
    ASSERT_EQ(results.failures().size(), 1u);
    const exp::ExperimentCell &failed = *results.failures()[0];
    EXPECT_EQ(failed.point.label, "WB/v4");
    EXPECT_EQ(failed.failure.outcome, exp::JobOutcome::SimFault);
    EXPECT_EQ(failed.failure.attempts, 1u);
    EXPECT_NE(failed.failure.message.find("latency windows"),
              std::string::npos);
    // The artifact's failures entry names the workload it ran.
    const std::string json = exp::resultsToJson("traffic", results);
    const std::size_t failures = json.find("\"failures\": [");
    ASSERT_NE(failures, std::string::npos);
    EXPECT_NE(json.find("\"app\": \"traffic\"", failures),
              std::string::npos)
        << json.substr(failures);
    EXPECT_EQ(results.machineRuns(), 2u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (i == bad)
            continue;
        EXPECT_EQ(exp::serializeCell(results.cells()[i]),
                  standaloneSnapshot(plan.points()[i]))
            << plan.points()[i].label;
    }
}

TEST(TrafficGroups, ChaosCrashQuarantinesTheGroupAndResumeReplaysIt)
{
    const exp::ExperimentPlan plan = mixedPlan();
    exp::RunnerOptions opt = isolatedOptions();
    opt.journalPath = scratchDir("chaos_group") + "/sweep.journal";
    opt.chaosCrashLabel = "WB/v6";  // Neither leader nor last member.
    const exp::ExperimentResults first = exp::runPlan(plan, opt);

    const auto expectWbQuarantined = [&](const exp::ExperimentResults &r) {
        ASSERT_EQ(r.failures().size(), plan.size() / 2);
        for (const exp::ExperimentCell &c : r.cells()) {
            EXPECT_EQ(c.failed, c.point.config == Config::WB)
                << c.point.label;
            if (c.failed) {
                EXPECT_EQ(c.failure.outcome, exp::JobOutcome::Crashed);
                EXPECT_EQ(c.failure.signal, SIGABRT);
                EXPECT_EQ(c.failure.attempts, 2u);
            }
        }
    };
    expectWbQuarantined(first);
    EXPECT_EQ(first.machineRuns(), 1u);

    // Every member's quarantine was journaled: a resume without the
    // chaos hook replays the six verdicts and simulates nothing.
    opt.chaosCrashLabel.clear();
    opt.resume = true;
    const exp::ExperimentResults resumed = exp::runPlan(plan, opt);
    expectWbQuarantined(resumed);
    EXPECT_EQ(resumed.journalReplays(), plan.size() / 2);
    EXPECT_EQ(resumed.simulated(), 0u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(exp::serializeCell(first.cells()[i]),
                  exp::serializeCell(resumed.cells()[i]));
    }
}

} // namespace
} // namespace ede
