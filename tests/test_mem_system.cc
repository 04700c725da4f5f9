/**
 * @file
 * Tests for the NVM/DRAM devices and the assembled hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <queue>
#include <tuple>

#include "common/random.hh"
#include "mem/mem_system.hh"

namespace ede {
namespace {

// ---------------------------------------------------------------
// NvmDevice unit tests.
// ---------------------------------------------------------------

TEST(NvmDevice, CleanCompletesWhenBufferAccepts)
{
    NvmParams p;
    NvmDevice nvm(p);
    ASSERT_TRUE(nvm.tryAccept(MemReq{7, ReqKind::Clean, 0x100, 64}, 0));
    std::vector<MemResp> out;
    Cycle now = 0;
    while (out.empty() && now < 1000)
        nvm.tick(++now, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, 7u);
    EXPECT_EQ(out[0].kind, ReqKind::Clean);
    // Acceptance (persistence) is fast -- the media write happens
    // later in the background.
    EXPECT_LE(now, p.bufferAccept + 2);
    EXPECT_EQ(nvm.stats().cleansAccepted, 1u);
}

TEST(NvmDevice, WritesCoalesceIntoPendingLine)
{
    NvmDevice nvm;
    // Same 256-byte media line.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x100, 64}, 0);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x140, 64}, 0);
    EXPECT_EQ(nvm.bufferOccupancy(), 1u);
    EXPECT_EQ(nvm.stats().writesCoalesced, 1u);
    // A different media line occupies a second slot.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x200, 64}, 0);
    EXPECT_EQ(nvm.bufferOccupancy(), 2u);
}

TEST(NvmDevice, BufferFullExertsBackpressure)
{
    NvmParams p;
    p.writeLatency = 1000000; // Keep the media busy forever.
    p.mediaWriters = 1;
    NvmDevice nvm(p);
    for (std::uint32_t i = 0; i < p.bufferSlots; ++i) {
        ASSERT_TRUE(nvm.tryAccept(
            MemReq{kNoReq, ReqKind::Writeback,
                   static_cast<Addr>(i) * 256, 64}, 0));
    }
    EXPECT_FALSE(nvm.tryAccept(
        MemReq{kNoReq, ReqKind::Writeback, 999 * 256, 64}, 0));
    EXPECT_EQ(nvm.stats().bufferFullRejects, 1u);
    // Coalescing into an existing line still works when full.
    EXPECT_TRUE(nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x40,
                                     64}, 0));
}

TEST(NvmDevice, MediaWriteTakesWriteLatencyAndSamplesOccupancy)
{
    NvmParams p;
    NvmDevice nvm(p);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (!nvm.idle() && now < 10 * p.writeLatency)
        nvm.tick(++now, out);
    EXPECT_TRUE(nvm.idle());
    EXPECT_GE(now, p.writeLatency);
    EXPECT_EQ(nvm.stats().mediaWrites, 1u);
    EXPECT_EQ(nvm.occupancyDist().totalSamples(), 1u);
    EXPECT_EQ(nvm.occupancyDist().count(1), 1u); // One pending write.
}

TEST(NvmDevice, ReadLatencyIsAsymmetric)
{
    NvmParams p;
    NvmDevice nvm(p);
    nvm.tryAccept(MemReq{1, ReqKind::Read, 0x0, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (out.empty() && now < 10 * p.readLatency)
        nvm.tick(++now, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GE(now, p.readLatency);
    EXPECT_LT(now, p.writeLatency);
}

TEST(NvmDevice, ReadsHitThePendingWriteBuffer)
{
    NvmParams p;
    NvmDevice nvm(p);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x100, 64}, 0);
    nvm.tryAccept(MemReq{1, ReqKind::Read, 0x120, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (out.empty() && now < p.readLatency)
        nvm.tick(++now, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LE(now, p.bufferReadHit + 2);
    EXPECT_EQ(nvm.stats().bufferReadHits, 1u);
}

TEST(NvmDevice, PersistHookFiresOnAcceptance)
{
    NvmDevice nvm;
    std::vector<Addr> persisted;
    std::vector<TraceIndex> origins;
    nvm.setPersistHook(
        [&](Addr a, std::uint32_t, Cycle, TraceIndex o, unsigned) {
            persisted.push_back(a);
            origins.push_back(o);
        });
    nvm.tryAccept(MemReq{1, ReqKind::Clean, 0x300, 64, 42}, 5);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x400, 64}, 6);
    ASSERT_EQ(persisted.size(), 2u);
    EXPECT_EQ(persisted[0], 0x300u);
    EXPECT_EQ(origins[0], 42u);
    EXPECT_EQ(origins[1], kNoOrigin);
}

TEST(NvmDevice, CoalesceDuringMediaWriteReArmsTheSlot)
{
    // A write landing on a line already being pushed to the media
    // must re-arm the slot: otherwise the newer data would be lost.
    NvmParams p;
    p.mediaWriters = 1;
    NvmDevice nvm(p);
    std::vector<MemResp> out;
    Cycle now = 0;
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64}, now);
    // Let the media write start.
    for (int i = 0; i < 5; ++i)
        nvm.tick(++now, out);
    // Coalesce while writing.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x40, 64}, now);
    EXPECT_EQ(nvm.bufferOccupancy(), 1u);
    while (!nvm.idle() && now < 10 * p.writeLatency)
        nvm.tick(++now, out);
    EXPECT_TRUE(nvm.idle());
    // The re-armed slot drained as one (merged) media write.
    EXPECT_EQ(nvm.stats().mediaWrites, 1u);
    EXPECT_EQ(nvm.stats().writesCoalesced, 1u);
}

TEST(NvmDevice, ReadQueueBackpressure)
{
    NvmParams p;
    p.readQueueDepth = 2;
    p.mediaReaders = 1;
    NvmDevice nvm(p);
    // Saturate the single reader and the queue.
    EXPECT_TRUE(nvm.tryAccept(MemReq{1, ReqKind::Read, 0x0, 64}, 0));
    std::vector<MemResp> out;
    nvm.tick(1, out); // First read occupies the port.
    EXPECT_TRUE(nvm.tryAccept(MemReq{2, ReqKind::Read, 0x400, 64}, 1));
    EXPECT_TRUE(nvm.tryAccept(MemReq{3, ReqKind::Read, 0x800, 64}, 1));
    EXPECT_FALSE(nvm.tryAccept(MemReq{4, ReqKind::Read, 0xc00, 64},
                               1));
}

// ---------------------------------------------------------------
// Differential check of the event-driven NvmDevice against the
// straightforward linear-scan model it replaced: one slot vector,
// scanned to coalesce, to retire finished writes, to count busy
// writers and to pick the oldest waiting slot.  Both are driven with
// the same seeded request streams and compared cycle by cycle.
// ---------------------------------------------------------------

class LinearScanNvm
{
  public:
    explicit LinearScanNvm(NvmParams params)
        : params_(params), occupancy_(params.bufferSlots, 1)
    {
        readPortFree_.assign(params_.mediaReaders, 0);
    }

    void setPersistHook(PersistHook h) { persistHook_ = std::move(h); }
    void setMediaWriteHook(MediaWriteHook h) { mediaHook_ = std::move(h); }
    void setAcceptFaultHook(AcceptFaultHook h) { fault_ = std::move(h); }

    bool
    tryAccept(const MemReq &req, Cycle now)
    {
        lastRejectTransient_ = false;
        if (req.kind == ReqKind::Writeback || req.kind == ReqKind::Clean) {
            if (fault_ && fault_(req, now)) {
                ++stats_.transientRejects;
                lastRejectTransient_ = true;
                return false;
            }
            return acceptWrite(req, now, req.kind == ReqKind::Clean);
        }
        if (readQ_.size() >= params_.readQueueDepth)
            return false;
        readQ_.push_back(req);
        return true;
    }

    void
    tick(Cycle now, std::vector<MemResp> &out)
    {
        while (!completions_.empty() && completions_.top().due <= now) {
            out.push_back(completions_.top().resp);
            completions_.pop();
        }
        while (!readQ_.empty()) {
            const MemReq &req = readQ_.front();
            if (findSlot(mediaLine(req.addr))) {
                ++stats_.reads;
                ++stats_.bufferReadHits;
                completions_.push(Pending{now + params_.bufferReadHit,
                                          MemResp{req.id, req.kind,
                                                  req.addr, req.core}});
                readQ_.pop_front();
                continue;
            }
            auto port = std::min_element(readPortFree_.begin(),
                                         readPortFree_.end());
            if (*port > now)
                break;
            ++stats_.reads;
            *port = now + params_.readLatency;
            completions_.push(Pending{now + params_.readLatency,
                                      MemResp{req.id, req.kind, req.addr,
                                              req.core}});
            readQ_.pop_front();
        }
        for (auto it = slots_.begin(); it != slots_.end();) {
            if (it->writing && it->writeDone <= now) {
                ++stats_.mediaWrites;
                occupancy_.sample(slots_.size());
                if (mediaHook_)
                    mediaHook_(it->lineAddr, now);
                it = slots_.erase(it);
            } else {
                ++it;
            }
        }
        std::uint32_t busy = 0;
        for (const Slot &s : slots_)
            busy += s.writing ? 1 : 0;
        while (busy < params_.mediaWriters) {
            Slot *oldest = nullptr;
            for (Slot &s : slots_) {
                if (!s.writing &&
                    (!oldest || s.enqueued < oldest->enqueued))
                    oldest = &s;
            }
            if (!oldest)
                break;
            oldest->writing = true;
            oldest->writeDone = now + params_.writeLatency;
            ++busy;
        }
    }

    bool
    idle() const
    {
        return slots_.empty() && readQ_.empty() && completions_.empty();
    }

    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle next = kNoCycle;
        if (!completions_.empty())
            next = std::min(next, std::max(now, completions_.top().due));
        if (!readQ_.empty()) {
            const Cycle port = *std::min_element(readPortFree_.begin(),
                                                 readPortFree_.end());
            next = std::min(next, std::max(now, port));
        }
        bool launchable = false;
        std::uint32_t busy = 0;
        for (const Slot &s : slots_) {
            if (s.writing) {
                ++busy;
                next = std::min(next, std::max(now, s.writeDone));
            } else {
                launchable = true;
            }
        }
        if (launchable && busy < params_.mediaWriters)
            next = std::min(next, now);
        return next;
    }

    /** True when @p addr's media line is being written right now. */
    bool
    writing(Addr addr) const
    {
        const Slot *s = const_cast<LinearScanNvm *>(this)->findSlot(
            mediaLine(addr));
        return s && s->writing;
    }

    bool present(Addr addr) const
    {
        return const_cast<LinearScanNvm *>(this)->findSlot(
                   mediaLine(addr)) != nullptr;
    }

    std::size_t bufferOccupancy() const { return slots_.size(); }
    const Distribution &occupancyDist() const { return occupancy_; }
    const NvmStats &stats() const { return stats_; }
    bool lastRejectTransient() const { return lastRejectTransient_; }

  private:
    struct Slot
    {
        Addr lineAddr = 0;
        Cycle enqueued = 0;
        bool writing = false;
        Cycle writeDone = 0;
    };
    struct Pending
    {
        Cycle due;
        MemResp resp;
        bool operator>(const Pending &o) const { return due > o.due; }
    };

    Addr mediaLine(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.lineBytes - 1);
    }

    Slot *
    findSlot(Addr line)
    {
        for (Slot &s : slots_)
            if (s.lineAddr == line)
                return &s;
        return nullptr;
    }

    bool
    acceptWrite(const MemReq &req, Cycle now, bool is_clean)
    {
        const Addr line = mediaLine(req.addr);
        if (Slot *slot = findSlot(line)) {
            ++stats_.writesCoalesced;
            if (slot->writing) {
                slot->writing = false;
                slot->enqueued = now;
            }
        } else {
            if (slots_.size() >= params_.bufferSlots) {
                ++stats_.bufferFullRejects;
                return false;
            }
            slots_.push_back(Slot{line, now, false, 0});
        }
        ++stats_.writesAccepted;
        if (is_clean) {
            ++stats_.cleansAccepted;
            completions_.push(Pending{now + params_.bufferAccept,
                                      MemResp{req.id, ReqKind::Clean,
                                              req.addr, req.core}});
        }
        if (persistHook_)
            persistHook_(req.addr, req.size ? req.size : 64, now,
                         req.origin, req.core);
        return true;
    }

    NvmParams params_;
    std::vector<Slot> slots_;
    std::deque<MemReq> readQ_;
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> completions_;
    std::vector<Cycle> readPortFree_;
    Distribution occupancy_;
    PersistHook persistHook_;
    MediaWriteHook mediaHook_;
    AcceptFaultHook fault_;
    bool lastRejectTransient_ = false;
    NvmStats stats_;
};

using MediaEvent = std::pair<Addr, Cycle>;
using PersistEvent = std::tuple<Addr, std::uint32_t, Cycle, TraceIndex,
                                unsigned>;

bool
sameResp(const MemResp &a, const MemResp &b)
{
    return a.id == b.id && a.kind == b.kind && a.addr == b.addr &&
           a.core == b.core;
}

void
expectSameStats(const NvmStats &a, const NvmStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.bufferReadHits, b.bufferReadHits);
    EXPECT_EQ(a.writesAccepted, b.writesAccepted);
    EXPECT_EQ(a.writesCoalesced, b.writesCoalesced);
    EXPECT_EQ(a.mediaWrites, b.mediaWrites);
    EXPECT_EQ(a.cleansAccepted, b.cleansAccepted);
    EXPECT_EQ(a.bufferFullRejects, b.bufferFullRejects);
    EXPECT_EQ(a.transientRejects, b.transientRejects);
}

/** What one differential run exercised. */
struct DiffCoverage
{
    std::uint64_t rearms = 0;       ///< Coalesces into writing slots.
    std::uint64_t rearmTies = 0;    ///< ...in a cycle with a fresh accept.
    std::uint64_t fullRejects = 0;
    std::uint64_t transientRejects = 0;
    std::uint64_t readHits = 0;
    std::uint64_t mediaWrites = 0;
};

/**
 * Drive both models for @p cycles cycles with a request stream drawn
 * from @p seed and assert they agree after every call.  A few hot
 * lines keep coalesces (and re-arms of writing slots) frequent; a
 * wide cold range fills the buffer.
 */
void
runNvmDifferential(std::uint64_t seed, NvmParams p, Cycle cycles,
                   bool faults, DiffCoverage &cov)
{
    NvmDevice dut(p);
    LinearScanNvm ref(p);
    std::vector<MediaEvent> dutMedia, refMedia;
    std::vector<PersistEvent> dutPersist, refPersist;
    dut.setMediaWriteHook([&](Addr a, Cycle c) {
        dutMedia.emplace_back(a, c);
    });
    ref.setMediaWriteHook([&](Addr a, Cycle c) {
        refMedia.emplace_back(a, c);
    });
    dut.setPersistHook([&](Addr a, std::uint32_t s, Cycle c, TraceIndex o,
                           unsigned core) {
        dutPersist.emplace_back(a, s, c, o, core);
    });
    ref.setPersistHook([&](Addr a, std::uint32_t s, Cycle c, TraceIndex o,
                           unsigned core) {
        refPersist.emplace_back(a, s, c, o, core);
    });
    if (faults) {
        // A pure function of the request, so both models see the
        // same transient rejects.
        auto hook = [](const MemReq &req, Cycle now) {
            return ((req.addr >> 6) * 31 + now * 17) % 11 == 0;
        };
        dut.setAcceptFaultHook(hook);
        ref.setAcceptFaultHook(hook);
    }

    Rng rng(seed);
    ReqId nextId = 1;
    std::vector<MemResp> dutOut, refOut;
    for (Cycle now = 0; now < cycles; ++now) {
        bool fresh_this_cycle = false;
        bool rearm_this_cycle = false;
        const std::uint64_t offers = rng.below(4);
        for (std::uint64_t k = 0; k < offers; ++k) {
            MemReq req;
            req.core = static_cast<unsigned>(rng.below(2));
            if (rng.below(8) < 3) {
                // Hot lines: coalesce, often into a writing slot.
                req.addr = rng.below(6) * p.lineBytes + 64 * rng.below(4);
            } else {
                req.addr = (16 + rng.below(512)) * p.lineBytes;
            }
            if (rng.below(16) < 11) {
                req.kind = rng.below(3) == 0 ? ReqKind::Clean
                                             : ReqKind::Writeback;
                req.id = req.kind == ReqKind::Clean ? nextId++ : kNoReq;
                req.size = 64;
                req.origin = rng.below(2) ? rng.below(1000) : kNoOrigin;
            } else {
                req.kind = ReqKind::Read;
                req.id = nextId++;
                req.size = 8;
            }
            const bool write = req.kind != ReqKind::Read;
            const bool was_present = ref.present(req.addr);
            const bool was_writing = ref.writing(req.addr);
            const bool a = dut.tryAccept(req, now);
            const bool b = ref.tryAccept(req, now);
            ASSERT_EQ(a, b) << "accept differs at cycle " << now;
            ASSERT_EQ(dut.lastRejectTransient(), ref.lastRejectTransient());
            if (write && b) {
                if (was_writing) {
                    ++cov.rearms;
                    rearm_this_cycle = true;
                } else if (!was_present) {
                    fresh_this_cycle = true;
                }
            }
            if (write && !b) {
                if (ref.lastRejectTransient())
                    ++cov.transientRejects;
                else
                    ++cov.fullRejects;
            }
        }
        if (fresh_this_cycle && rearm_this_cycle)
            ++cov.rearmTies;
        ASSERT_EQ(dut.nextEventCycle(now), ref.nextEventCycle(now))
            << "hint differs before the tick of cycle " << now;

        dutOut.clear();
        refOut.clear();
        dut.tick(now, dutOut);
        ref.tick(now, refOut);
        ASSERT_EQ(dutOut.size(), refOut.size()) << "at cycle " << now;
        for (std::size_t i = 0; i < dutOut.size(); ++i)
            ASSERT_TRUE(sameResp(dutOut[i], refOut[i]))
                << "response " << i << " differs at cycle " << now;
        ASSERT_EQ(dutMedia, refMedia) << "at cycle " << now;
        ASSERT_EQ(dutPersist, refPersist) << "at cycle " << now;
        ASSERT_EQ(dut.bufferOccupancy(), ref.bufferOccupancy())
            << "at cycle " << now;
        ASSERT_EQ(dut.idle(), ref.idle()) << "at cycle " << now;
        ASSERT_EQ(dut.nextEventCycle(now + 1), ref.nextEventCycle(now + 1))
            << "hint differs after the tick of cycle " << now;
    }
    EXPECT_EQ(dut.occupancyDist().counts(), ref.occupancyDist().counts());
    EXPECT_EQ(dut.occupancyDist().sampleSum(),
              ref.occupancyDist().sampleSum());
    expectSameStats(dut.stats(), ref.stats());
    cov.readHits += ref.stats().bufferReadHits;
    cov.mediaWrites += ref.stats().mediaWrites;
}

NvmParams
smallNvm()
{
    // A small, fast device: the buffer fills and drains many times
    // within a few thousand cycles.
    NvmParams p;
    p.readLatency = 13;
    p.writeLatency = 29;
    p.bufferAccept = 3;
    p.bufferReadHit = 2;
    p.bufferSlots = 12;
    p.mediaWriters = 3;
    p.mediaReaders = 2;
    p.readQueueDepth = 4;
    return p;
}

TEST(NvmDifferential, MatchesLinearScanModelOnRandomStreams)
{
    DiffCoverage total;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        runNvmDifferential(seed, smallNvm(), 4000, /*faults=*/false,
                           total);
        if (HasFatalFailure())
            return;
    }
    // The streams must actually reach every ordering-sensitive case.
    EXPECT_GT(total.rearms, 500u);
    EXPECT_GT(total.rearmTies, 50u);
    EXPECT_GT(total.fullRejects, 5000u);
    EXPECT_GT(total.readHits, 500u);
    EXPECT_GT(total.mediaWrites, 1000u);
}

TEST(NvmDifferential, MatchesLinearScanModelUnderTransientFaults)
{
    DiffCoverage total;
    for (std::uint64_t seed = 100; seed < 108; ++seed) {
        runNvmDifferential(seed, smallNvm(), 4000, /*faults=*/true, total);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(total.transientRejects, 100u);
    EXPECT_GT(total.fullRejects, 100u);
    EXPECT_GT(total.rearmTies, 0u);
}

TEST(NvmDifferential, MatchesLinearScanModelAtTableOneGeometry)
{
    // The real 128-slot, 5-writer device with its real latencies.
    DiffCoverage c;
    runNvmDifferential(7, NvmParams{}, 8000, /*faults=*/false, c);
    EXPECT_GT(c.fullRejects, 0u);
    EXPECT_GT(c.mediaWrites, 0u);
}

TEST(NvmDevice, ReArmAndFreshAcceptInOneCycleLaunchReArmFirst)
{
    // Slot A is created first and starts writing; at cycle t a fresh
    // line B is accepted and then A is re-armed.  Both now wait with
    // enqueued == t; A keeps its older insertion order, so the single
    // writer takes A before B.
    NvmParams p;
    p.mediaWriters = 1;
    p.writeLatency = 10;
    NvmDevice nvm(p);
    std::vector<Addr> media;
    nvm.setMediaWriteHook([&](Addr a, Cycle) { media.push_back(a); });
    std::vector<MemResp> out;
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x1000, 64}, 0);
    nvm.tick(0, out); // A launches.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x2000, 64}, 5);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x1040, 64}, 5);
    for (Cycle now = 5; !nvm.idle() && now < 100; ++now)
        nvm.tick(now, out);
    ASSERT_EQ(media.size(), 2u);
    EXPECT_EQ(media[0], 0x1000u);
    EXPECT_EQ(media[1], 0x2000u);
}

TEST(MemSystemWarm, WarmLineMakesLoadsFast)
{
    MemSystem mem{MemSystemParams{}};
    mem.warmLine(0x123400, /*level=*/1);
    EXPECT_TRUE(mem.l1d().probe(0x123400));
    EXPECT_TRUE(mem.l2().probe(0x123400));
    EXPECT_TRUE(mem.l3().probe(0x123400));
    Cycle now = 0;
    const auto id = mem.sendLoad(0x123400, 8, now);
    ASSERT_TRUE(id.has_value());
    Cycle spent = 0;
    while (!mem.consumeDone(*id)) {
        mem.tick(now++);
        ASSERT_LT(++spent, 20u) << "warm load should hit L1";
    }
}

TEST(MemSystemWarm, LevelThreeWarmStopsAtL3)
{
    MemSystem mem{MemSystemParams{}};
    mem.warmLine(0x5000, /*level=*/3);
    EXPECT_FALSE(mem.l1d().probe(0x5000));
    EXPECT_FALSE(mem.l2().probe(0x5000));
    EXPECT_TRUE(mem.l3().probe(0x5000));
}

// ---------------------------------------------------------------
// DramDevice unit tests.
// ---------------------------------------------------------------

TEST(DramDevice, RowHitIsFasterThanRowMiss)
{
    DramParams p;
    auto run_one = [&](Addr a1, Addr a2) {
        DramDevice dram(p);
        std::vector<MemResp> out;
        Cycle now = 0;
        dram.tryAccept(MemReq{1, ReqKind::Read, a1, 64}, now);
        while (out.empty())
            dram.tick(++now, out);
        out.clear();
        dram.tryAccept(MemReq{2, ReqKind::Read, a2, 64}, now);
        const Cycle start = now;
        while (out.empty())
            dram.tick(++now, out);
        return now - start;
    };
    // Same row -> hit; same bank different row -> miss.
    const Cycle hit = run_one(0x0, 0x40);
    const Cycle miss = run_one(0x0, 0x40 + 2048ull * 32);
    EXPECT_LT(hit, miss);
}

TEST(DramDevice, QueueDepthLimitsAcceptance)
{
    DramParams p;
    p.queueDepth = 2;
    DramDevice dram(p);
    EXPECT_TRUE(dram.tryAccept(MemReq{1, ReqKind::Read, 0x0, 64}, 0));
    EXPECT_TRUE(dram.tryAccept(MemReq{2, ReqKind::Read, 0x40, 64}, 0));
    EXPECT_FALSE(dram.tryAccept(MemReq{3, ReqKind::Read, 0x80, 64}, 0));
}

TEST(DramDevice, DrainsToIdle)
{
    DramDevice dram;
    dram.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64}, 0);
    dram.tryAccept(MemReq{1, ReqKind::Read, 0x4000, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (!dram.idle() && now < 100000)
        dram.tick(++now, out);
    EXPECT_TRUE(dram.idle());
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 1u);
}

// ---------------------------------------------------------------
// Full hierarchy.
// ---------------------------------------------------------------

struct MemSystemFixture : ::testing::Test
{
    MemSystemFixture() : mem(MemSystemParams{}) {}

    Cycle
    runUntilDone(ReqId id, Cycle limit = 100000)
    {
        while (!mem.consumeDone(id)) {
            mem.tick(now++);
            EXPECT_LT(now, limit) << "request " << id << " hung";
            if (now >= limit)
                return now;
        }
        return now;
    }

    MemSystem mem;
    Cycle now = 0;
};

TEST_F(MemSystemFixture, ColdDramLoadMissesAllLevels)
{
    const auto id = mem.sendLoad(0x10000, 8, now);
    ASSERT_TRUE(id.has_value());
    const Cycle done = runUntilDone(*id);
    // Must at least pay L1+L2+L3 latencies plus DRAM access.
    EXPECT_GT(done, 33u);
    EXPECT_EQ(mem.l1d().stats().misses, 1u);
}

TEST_F(MemSystemFixture, WarmLoadHitsL1)
{
    const auto id1 = mem.sendLoad(0x10000, 8, now);
    runUntilDone(*id1);
    const Cycle warm_start = now;
    const auto id2 = mem.sendLoad(0x10008, 8, now);
    const Cycle done = runUntilDone(*id2);
    EXPECT_LE(done - warm_start, 4u);
    EXPECT_EQ(mem.l1d().stats().hits, 1u);
}

TEST_F(MemSystemFixture, NvmLoadSlowerThanDramLoad)
{
    const Addr nvm_addr = mem.params().map.nvmBase() + 0x1000;
    const auto d = mem.sendLoad(0x20000, 8, now);
    const Cycle t0 = now;
    const Cycle dram_done = runUntilDone(*d) - t0;
    const Cycle t1 = now;
    const auto n = mem.sendLoad(nvm_addr, 8, now);
    const Cycle nvm_done = runUntilDone(*n) - t1;
    EXPECT_GT(nvm_done, dram_done);
    EXPECT_GE(nvm_done, mem.params().nvm.readLatency);
}

TEST_F(MemSystemFixture, CleanToNvmPersistsViaBuffer)
{
    const Addr nvm_addr = mem.params().map.nvmBase() + 0x40;
    const auto s = mem.sendStore(nvm_addr, 8, now);
    runUntilDone(*s);
    const auto c = mem.sendClean(nvm_addr, now);
    runUntilDone(*c);
    EXPECT_EQ(mem.controller().nvm().stats().cleansAccepted, 1u);
    // Run to idle: the media write completes in the background.
    while (!mem.idle() && now < 200000)
        mem.tick(now++);
    EXPECT_TRUE(mem.idle());
    EXPECT_GE(mem.controller().nvm().stats().mediaWrites, 1u);
}

TEST_F(MemSystemFixture, CleanToDramCompletesAtController)
{
    const auto c = mem.sendClean(0x30000, now);
    const Cycle t0 = now;
    const Cycle done = runUntilDone(*c) - t0;
    EXPECT_LT(done, mem.params().nvm.bufferAccept + 40);
    EXPECT_EQ(mem.controller().nvm().stats().cleansAccepted, 0u);
}

TEST_F(MemSystemFixture, StoreCompletesAtL1NotAtMemory)
{
    const auto s = mem.sendStore(0x40000, 8, now);
    const Cycle t0 = now;
    runUntilDone(*s);
    // Write-allocate: the fill costs DRAM latency, but nothing waits
    // for a memory write.
    EXPECT_TRUE(mem.l1d().probeDirty(0x40000));
    EXPECT_GT(now - t0, 0u);
}

TEST_F(MemSystemFixture, IdleAfterAllTraffic)
{
    const auto a = mem.sendLoad(0x1000, 8, now);
    const auto b = mem.sendStore(mem.params().map.nvmBase() + 0x80, 8,
                                 now);
    runUntilDone(*a);
    runUntilDone(*b);
    const auto c = mem.sendClean(mem.params().map.nvmBase() + 0x80,
                                 now);
    runUntilDone(*c);
    while (!mem.idle() && now < 500000)
        mem.tick(now++);
    EXPECT_TRUE(mem.idle());
}

} // namespace
} // namespace ede
