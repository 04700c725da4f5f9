/**
 * @file
 * NVM device model: asymmetric read/write latency, 256-byte internal
 * lines, and a persistent 128-slot on-DIMM write buffer.
 *
 * Matching Section VI-A of the paper: writes (cache evictions and DC
 * CVAP cleans) are accepted into the persistent buffer, where they may
 * coalesce with pending writes to the same 256 B internal line; a
 * small number of media writers drain the buffer at the 500 ns write
 * latency.  Because the buffer sits inside the ADR persistence
 * domain, a Clean *completes* (is persistent) as soon as its line is
 * accepted into the buffer.
 *
 * Every time a write reaches the media, the current buffer occupancy
 * is sampled -- this is exactly the Fig. 10 distribution.
 *
 * The device is event-driven: a tick costs O(events), not O(slots).
 * It keeps three orderings that the results depend on:
 *  - launch order: a free media writer takes the waiting slot with the
 *    smallest (enqueued cycle, insertion order).  Insertion order is
 *    the order in which slots were created by fresh accepts; a slot
 *    re-armed by a coalesce keeps its place in it, so a re-arm and a
 *    fresh accept in the same cycle launch re-arm first;
 *  - completion order: writes finishing in the same tick retire (and
 *    fire the media-write hook and the occupancy sample) in insertion
 *    order;
 *  - at most mediaWriters slots are writing; they are exactly the
 *    in-flight list, so the busy count and the earliest writeDone
 *    behind nextEventCycle are exact, never early.
 * A line -> slot index makes coalescing, buffer-full rejects and read
 * hits O(1).  DESIGN.md section 10 states the same invariants.
 */

#ifndef EDE_MEM_NVM_HH
#define EDE_MEM_NVM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/req.hh"

namespace ede {

/** NVM timing/geometry parameters (Table I defaults). */
struct NvmParams
{
    Cycle readLatency = 450;     ///< 150 ns at 3 GHz.
    Cycle writeLatency = 1500;   ///< 500 ns at 3 GHz.
    Cycle bufferAccept = 60;     ///< WPQ accept round trip (~20 ns).
    Cycle bufferReadHit = 60;    ///< Read served from a pending write.
    std::uint32_t lineBytes = 256;
    std::uint32_t bufferSlots = 128;

    /**
     * Concurrent media write streams drained from the buffer:
     * 5 x 256 B / 500 ns = ~2.6 GB/s sustained write bandwidth, in
     * line with a 3D-XPoint-class DIMM.  Under the unsafe
     * configuration the kernels' persist rate exceeds this, keeping
     * the 128-slot buffer full (Fig. 10).
     */
    std::uint32_t mediaWriters = 5;
    std::uint32_t mediaReaders = 4;  ///< Concurrent media read ports.
    std::uint32_t readQueueDepth = 16;
};

/** NVM counters. */
struct NvmStats
{
    std::uint64_t reads = 0;
    std::uint64_t bufferReadHits = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t writesCoalesced = 0;
    std::uint64_t mediaWrites = 0;
    std::uint64_t cleansAccepted = 0;
    std::uint64_t bufferFullRejects = 0;
    std::uint64_t transientRejects = 0; ///< Fault-injected accept fails.
};

/** Every NvmStats counter in wire order: v(name, field) each. */
template <FieldsOf<NvmStats> S, class V>
void
visitFields(S &s, V &&v)
{
    v("reads", s.reads);
    v("bufferReadHits", s.bufferReadHits);
    v("writesAccepted", s.writesAccepted);
    v("writesCoalesced", s.writesCoalesced);
    v("mediaWrites", s.mediaWrites);
    v("cleansAccepted", s.cleansAccepted);
    v("bufferFullRejects", s.bufferFullRejects);
    v("transientRejects", s.transientRejects);
}
static_assert(sizeof(NvmStats) == 8 * sizeof(std::uint64_t),
              "a new NvmStats counter joins visitFields");

/**
 * Hook invoked when a write/clean enters the persistence domain
 * (i.e. the persistent buffer): (cache-line address, size, cycle,
 * originating trace index or kNoOrigin for cache-generated traffic,
 * originating core).  The origin lets the fault model-checker tie
 * persist events back to the DC CVAP / store instructions whose EDK
 * and fence constraints order them; the core index is only meaningful
 * when the origin is real (evictions aggregate stores from many
 * instructions and report core 0).
 */
using PersistHook =
    std::function<void(Addr, std::uint32_t, Cycle, TraceIndex, unsigned)>;

/**
 * Hook invoked when a buffered line finishes its media write:
 * (256 B media-line address, cycle).  Lines that reached the media
 * are durable even under a failed power-down drain, so the fault
 * campaign uses these events to split "on media" from "still in the
 * WPQ" when it reconstructs adversarial crash images.
 */
using MediaWriteHook = std::function<void(Addr, Cycle)>;

/**
 * Fault-injection hook consulted before a write/clean is accepted:
 * return true to reject this attempt (a transient accept failure;
 * the controller retries with backoff).  Installed by the fault
 * campaign; must eventually return false for every line so the
 * simulation keeps making progress.
 */
using AcceptFaultHook = std::function<bool(const MemReq &, Cycle)>;

/** NVM DIMM with persistent write buffering. */
class NvmDevice
{
  public:
    explicit NvmDevice(NvmParams params = {});

    /** Offer a request; false when buffers/queues are full. */
    bool tryAccept(const MemReq &req, Cycle now);

    /** Advance one cycle; completed reads/cleans are pushed to @p out. */
    void tick(Cycle now, std::vector<MemResp> &out);

    /** True when nothing is pending (buffer drained). */
    bool idle() const;

    /**
     * Skip-ahead hint: earliest cycle >= @p now at which tick() might
     * deliver a completion, serve a queued read, or finish/launch a
     * media write.  kNoCycle when fully drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Current number of pending writes in the on-DIMM buffer. */
    std::size_t bufferOccupancy() const { return live_; }

    /** Fig. 10 distribution: occupancy sampled at each media write. */
    const Distribution &occupancyDist() const { return occupancy_; }

    /**
     * Mean sampled WPQ occupancy in permille of bufferSlots -- the
     * congestion half of the traffic layer's backpressure signal.
     * Integer arithmetic (0 with no samples) so downstream admission
     * decisions are bit-stable.
     */
    std::uint64_t
    meanOccupancyPermille() const
    {
        const std::uint64_t samples = occupancy_.totalSamples();
        if (!samples || !params_.bufferSlots)
            return 0;
        return occupancy_.sampleSum() * 1000 /
               (samples * params_.bufferSlots);
    }

    /**
     * Accept rejections (buffer-full + fault-injected transient) in
     * permille of all accept attempts -- the reject half of the
     * backpressure signal.
     */
    std::uint64_t
    rejectPermille() const
    {
        const std::uint64_t rejects =
            stats_.bufferFullRejects + stats_.transientRejects;
        const std::uint64_t attempts = stats_.writesAccepted +
                                       stats_.cleansAccepted + rejects;
        return attempts ? rejects * 1000 / attempts : 0;
    }

    /** Install the persistence-domain entry hook. */
    void setPersistHook(PersistHook hook) { persistHook_ = std::move(hook); }

    /** Install the media-write completion hook. */
    void
    setMediaWriteHook(MediaWriteHook hook)
    {
        mediaWriteHook_ = std::move(hook);
    }

    /** Install (or clear) the transient accept-failure injector. */
    void
    setAcceptFaultHook(AcceptFaultHook hook)
    {
        acceptFault_ = std::move(hook);
    }

    /** True when the latest tryAccept rejection was fault-injected. */
    bool lastRejectTransient() const { return lastRejectTransient_; }

    const NvmStats &stats() const { return stats_; }

    const NvmParams &params() const { return params_; }

  private:
    /** No slot (free-list and index sentinel). */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    struct Slot
    {
        Addr lineAddr = 0;        ///< 256 B aligned media line.
        Cycle enqueued = 0;
        std::uint64_t order = 0;  ///< Insertion order (fresh accepts).
        bool writing = false;
        Cycle writeDone = 0;
    };

    /** A waiting slot, keyed by its launch priority. */
    struct Waiting
    {
        Cycle enqueued;
        std::uint64_t order;
        std::uint32_t slot;
        bool
        operator>(const Waiting &o) const
        {
            return enqueued != o.enqueued ? enqueued > o.enqueued
                                          : order > o.order;
        }
    };

    struct Pending
    {
        Cycle due;
        MemResp resp;
        bool operator>(const Pending &o) const { return due > o.due; }
    };

    /**
     * Open-addressing media line -> slot map (linear probing,
     * backward-shift deletion), sized to twice the buffer.
     */
    class LineIndex
    {
      public:
        explicit LineIndex(std::uint32_t capacity);
        std::uint32_t find(Addr line) const;
        void insert(Addr line, std::uint32_t slot);
        void erase(Addr line);

      private:
        std::size_t home(Addr line) const;

        struct Cell
        {
            Addr line = 0;
            std::uint32_t slot = kNoSlot;
        };
        std::vector<Cell> cells_;
        std::size_t mask_ = 0;
    };

    Addr mediaLine(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.lineBytes - 1);
    }

    bool acceptWrite(const MemReq &req, Cycle now, bool is_clean);

    /** Add @p slot to the in-flight list, keeping insertion order. */
    void startWrite(std::uint32_t slot, Cycle now);

    NvmParams params_;
    std::vector<Slot> slots_;            ///< bufferSlots records.
    std::vector<std::uint32_t> freeSlots_;
    std::size_t live_ = 0;               ///< Occupied slots.
    std::uint64_t nextOrder_ = 0;
    LineIndex index_;
    std::priority_queue<Waiting, std::vector<Waiting>,
                        std::greater<Waiting>> waiting_;
    /** Writing slots, ascending insertion order (<= mediaWriters). */
    std::vector<std::uint32_t> inflight_;
    std::deque<MemReq> readQ_;
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> completions_;
    std::vector<Cycle> readPortFree_;    ///< Per-port busy-until.
    Distribution occupancy_;
    PersistHook persistHook_;
    MediaWriteHook mediaWriteHook_;
    AcceptFaultHook acceptFault_;
    bool lastRejectTransient_ = false;
    NvmStats stats_;
};

} // namespace ede

#endif // EDE_MEM_NVM_HH
