/**
 * @file
 * The post-retirement write buffer.
 *
 * Retired stores and cache-line writebacks wait here until their data
 * can be pushed to the memory system.  Entries may drain out of
 * order, subject to three gates:
 *
 *  1. same-line ordering: an entry must wait for older entries that
 *     touch the same cache line (this is the memory dependence that
 *     orders a store before the DC CVAP that persists it);
 *  2. DMB ST ordering: a store younger than a store barrier must wait
 *     until every store older than the barrier has completed --
 *     writebacks are deliberately *not* covered, which is why the
 *     paper's SU configuration is unsafe;
 *  3. EDE srcID ordering (WB enforcement, Section V-D): an entry that
 *     consumed an execution dependence carries the producer's
 *     sequence number and may not start pushing until the producer
 *     has completed.  JOIN entries carry two srcIDs and complete,
 *     without pushing anything, once both are cleared.
 */

#ifndef EDE_PIPELINE_WRITE_BUFFER_HH
#define EDE_PIPELINE_WRITE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"
#include "mem/mem_system.hh"

namespace ede {

/** One write-buffer entry. */
struct WbEntry
{
    SeqNum seq = kNoSeq;
    std::size_t traceIdx = 0;
    StaticInst si;
    Addr addr = kNoAddr;
    std::uint8_t size = 0;
    std::uint64_t val0 = 0;
    std::uint64_t val1 = 0;
    SeqNum srcId = kNoSeq;      ///< EDE producer gate (WB mode).
    SeqNum srcId2 = kNoSeq;     ///< Second producer gate (JOIN).
    SeqNum dmbBarrier = kNoSeq; ///< Store barrier older than this entry.
    bool edeCounted = false;    ///< Holds a WaitCounters slot.
    bool pushing = false;
    ReqId req = kNoReq;
    /**
     * Older entries in the buffer that gate this one by same-line
     * ordering (gate 1).  Maintained by the buffer: counted on insert,
     * decremented as those entries complete.
     */
    std::uint32_t lineBlockers = 0;
};

/** Write-buffer statistics. */
struct WriteBufferStats
{
    std::uint64_t inserted = 0;
    std::uint64_t pushes = 0;
    std::uint64_t srcIdGated = 0;   ///< Push attempts blocked by EDE.
    std::uint64_t lineGated = 0;    ///< Blocked by same-line ordering.
    std::uint64_t dmbGated = 0;     ///< Blocked by a store barrier.
    std::uint64_t memRejected = 0;  ///< L1D refused the push.
};

/** Every WriteBufferStats counter in wire order: v(name, field) each. */
template <FieldsOf<WriteBufferStats> S, class V>
void
visitFields(S &s, V &&v)
{
    v("inserted", s.inserted);
    v("pushes", s.pushes);
    v("srcIdGated", s.srcIdGated);
    v("lineGated", s.lineGated);
    v("dmbGated", s.dmbGated);
    v("memRejected", s.memRejected);
}
static_assert(sizeof(WriteBufferStats) == 6 * sizeof(std::uint64_t),
              "a new WriteBufferStats counter joins visitFields");

/**
 * What the write buffer needs from the core that owns it, called
 * directly on the per-tick path.
 */
class WriteBufferOwner
{
  public:
    /** An entry completed (is visible / persistent). */
    virtual void onWbComplete(const WbEntry &entry, Cycle now) = 0;

    /**
     * True when some *store* older than the barrier sequence number
     * has not yet completed (the core tracks stores in the store
     * queue as well as in this buffer).
     */
    virtual bool storesOlderIncomplete(SeqNum barrier) const = 0;
};

/** The write buffer with EDE enforcement support. */
class WriteBuffer
{
  public:
    /** @param coreId which private L1 this buffer's pushes target. */
    WriteBuffer(int capacity, int drainPerCycle, std::uint32_t lineBytes,
                MemSystem &mem, WriteBufferOwner &owner,
                unsigned coreId = 0);

    /** True when no entry can be inserted. */
    bool full() const { return entries_.size() >= capacity_; }

    /** True when the buffer holds no entries. */
    bool empty() const { return entries_.empty(); }

    /** Current occupancy. */
    std::size_t occupancy() const { return entries_.size(); }

    /** Insert at retirement. @pre !full() */
    void insert(WbEntry entry);

    /** Advance one cycle: complete finished pushes, start new ones. */
    void tick(Cycle now);

    /**
     * A dependence producer completed somewhere in the machine: clear
     * matching srcID tags (the paper's CAM-clear on push completion;
     * generalized so producers that never enter the buffer, e.g.
     * loads, also release their consumers).
     */
    void onProducerComplete(SeqNum producer);

    /**
     * Youngest entry overlapping [addr, addr+size), for load
     * dependence checks.  @return its seq and whether it fully covers
     * the range (kNoSeq when none).
     */
    std::pair<SeqNum, bool> youngestOverlap(Addr addr,
                                            std::uint8_t size) const;

    /**
     * Skip-ahead hint: @p now when some entry is ready to act next
     * tick (a push-eligible entry, or a JOIN with both tags cleared);
     * kNoCycle otherwise.  Every gate in this buffer clears through
     * an instruction completing -- core progress that ends any skip
     * window by itself -- so a gated buffer advertises no intrinsic
     * event; the gating stall counters of the cycles skipped over are
     * replayed by the core (see OoOCore::run).
     */
    Cycle nextEventCycle(Cycle now) const;

    const WriteBufferStats &stats() const { return stats_; }

    /**
     * Skip-ahead stat replay: account the gating stalls the buffer
     * would have counted on each of the skipped dead cycles.  The
     * core measures one dead tick's deltas and multiplies (the buffer
     * is untouched across the window, so every skipped tick would
     * have counted exactly the same stalls).
     */
    void
    replayGateStalls(std::uint64_t src_id, std::uint64_t line,
                     std::uint64_t dmb)
    {
        stats_.srcIdGated += src_id;
        stats_.lineGated += line;
        stats_.dmbGated += dmb;
    }

    /** Oldest-first contents (watchdog diagnostics). */
    const std::vector<WbEntry> &entries() const { return entries_; }

    /** True when @p seq occupies an entry (i.e. is incomplete). */
    bool holds(SeqNum seq) const;

    /**
     * Append the sequence numbers of the older entries that currently
     * block @p seq's push -- its same-line predecessors (the stall
     * analyzer walks them like any other ordering edge).  @return
     * false when @p seq is not in the buffer.
     */
    bool appendLineBlockers(SeqNum seq,
                            std::vector<SeqNum> &out) const;

    /**
     * Degrade-to-fence recovery: drop the srcID tags of @p seq so the
     * entry pushes as soon as its memory-ordering gates allow.
     * @return true when a tag was actually cleared.
     */
    bool clearEdeGates(SeqNum seq);

  private:
    Addr lineOf(Addr a) const { return a & ~static_cast<Addr>(lineBytes_ - 1); }

    /**
     * Same-line ordering (gate 1): true when the older entry @p older
     * must complete before @p younger may push.
     */
    bool lineOrders(const WbEntry &older, const WbEntry &younger) const;
    void completeEntry(std::size_t idx, Cycle now);

    std::size_t capacity_;
    int drainPerCycle_;
    std::uint32_t lineBytes_;
    MemSystem &mem_;
    WriteBufferOwner &owner_;
    unsigned coreId_ = 0;
    std::vector<WbEntry> entries_;  ///< Oldest first.
    std::size_t joins_ = 0;         ///< JOIN entries held.
    WriteBufferStats stats_;
};

} // namespace ede

#endif // EDE_PIPELINE_WRITE_BUFFER_HH
