#include "pipeline/write_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ede {

WriteBuffer::WriteBuffer(int capacity, int drainPerCycle,
                         std::uint32_t lineBytes, MemSystem &mem,
                         WriteBufferOwner &owner, unsigned coreId)
    : capacity_(static_cast<std::size_t>(capacity)),
      drainPerCycle_(drainPerCycle), lineBytes_(lineBytes), mem_(mem),
      owner_(owner), coreId_(coreId)
{
    ede_assert(capacity > 0, "write buffer needs at least one entry");
    entries_.reserve(capacity_);
}

void
WriteBuffer::insert(WbEntry entry)
{
    ede_assert(!full(), "write buffer overflow");
    ede_assert(entries_.empty() || entries_.back().seq < entry.seq,
               "write buffer entries must arrive in program order");
    // Insertion-time CAM check (Section V-D): if the producer's
    // entry is no longer in the buffer, it has already completed --
    // clear the tag.  (Producers that never enter the buffer, such
    // as loads, are older and thus completed before this retirement.)
    auto present = [this](SeqNum s) {
        for (const WbEntry &e : entries_) {
            if (e.seq == s)
                return true;
        }
        return false;
    };
    if (entry.srcId != kNoSeq && !present(entry.srcId))
        entry.srcId = kNoSeq;
    if (entry.srcId2 != kNoSeq && !present(entry.srcId2))
        entry.srcId2 = kNoSeq;
    entry.lineBlockers = 0;
    for (const WbEntry &older : entries_)
        entry.lineBlockers += lineOrders(older, entry) ? 1 : 0;
    ++stats_.inserted;
    joins_ += entry.si.op == Op::Join ? 1 : 0;
    entries_.push_back(std::move(entry));
}

bool
WriteBuffer::lineOrders(const WbEntry &older, const WbEntry &younger) const
{
    // Memory-dependence gating:
    //  - a store must wait for older stores whose bytes overlap
    //    (drain order decides the final value);
    //  - a clean must wait for older same-line stores (the persist
    //    must capture their data -- the STR -> DC CVAP dependence of
    //    Figure 5);
    //  - a store after a clean, and a clean after a clean, need no
    //    ordering: the younger operation does not disturb what the
    //    older one wrote or captured.
    if (!opIsStore(older.si.op))
        return false;
    if (opIsStore(younger.si.op)) {
        return older.addr < younger.addr + younger.size &&
               younger.addr < older.addr + older.size;
    }
    return lineOf(older.addr) == lineOf(younger.addr);
}

void
WriteBuffer::completeEntry(std::size_t idx, Cycle now)
{
    // Release the same-line gates this entry imposed on younger ones.
    for (std::size_t i = idx + 1; i < entries_.size(); ++i) {
        if (lineOrders(entries_[idx], entries_[i]))
            --entries_[i].lineBlockers;
    }
    // Move the entry out first: the completion callback and the
    // srcID broadcast both inspect the buffer.
    WbEntry entry = std::move(entries_[idx]);
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(idx));
    joins_ -= entry.si.op == Op::Join ? 1 : 0;
    onProducerComplete(entry.seq);
    owner_.onWbComplete(entry, now);
}

void
WriteBuffer::onProducerComplete(SeqNum producer)
{
    for (WbEntry &e : entries_) {
        if (e.srcId == producer)
            e.srcId = kNoSeq;
        if (e.srcId2 == producer)
            e.srcId2 = kNoSeq;
    }
}

void
WriteBuffer::tick(Cycle now)
{
    // 1. Finished pushes complete (and release their consumers).
    //    Nothing can have finished while the hierarchy holds no
    //    unconsumed completion.
    for (std::size_t i = 0; mem_.hasPendingDone() && i < entries_.size();) {
        WbEntry &e = entries_[i];
        if (e.pushing && mem_.consumeDone(e.req)) {
            completeEntry(i, now);
            continue;
        }
        ++i;
    }

    // 2. JOIN entries with both tags cleared are done: they have no
    //    data to push (Section V-D).
    for (std::size_t i = 0; joins_ && i < entries_.size();) {
        WbEntry &e = entries_[i];
        if (e.si.op == Op::Join && e.srcId == kNoSeq &&
            e.srcId2 == kNoSeq) {
            completeEntry(i, now);
            continue;
        }
        ++i;
    }

    // 3. Start new pushes, oldest first.
    int started = 0;
    for (std::size_t i = 0; i < entries_.size() &&
         started < drainPerCycle_; ++i) {
        WbEntry &e = entries_[i];
        if (e.pushing || e.si.op == Op::Join)
            continue;
        if (e.srcId != kNoSeq || e.srcId2 != kNoSeq) {
            ++stats_.srcIdGated;
            continue;
        }
        if (e.lineBlockers) {
            ++stats_.lineGated;
            continue;
        }
        // The core sets dmbBarrier only on entries the barrier
        // covers (stores always; cvaps when the conservative LSQ
        // timing is modelled).
        if (e.dmbBarrier != kNoSeq &&
            owner_.storesOlderIncomplete(e.dmbBarrier)) {
            ++stats_.dmbGated;
            continue;
        }
        std::optional<ReqId> id;
        if (opIsStore(e.si.op)) {
            id = mem_.sendStore(e.addr, e.size, now, e.traceIdx,
                                coreId_);
        } else {
            id = mem_.sendClean(e.addr, now, e.traceIdx, coreId_);
        }
        if (!id) {
            // L1D backpressure affects every later push equally.
            ++stats_.memRejected;
            break;
        }
        e.pushing = true;
        e.req = *id;
        ++stats_.pushes;
        ++started;
    }
}

Cycle
WriteBuffer::nextEventCycle(Cycle now) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const WbEntry &e = entries_[i];
        if (e.si.op == Op::Join) {
            if (e.srcId == kNoSeq && e.srcId2 == kNoSeq)
                return now; // Completes next tick.
            continue;
        }
        if (e.pushing)
            continue; // Completion arrives through the memory hint.
        if (e.srcId != kNoSeq || e.srcId2 != kNoSeq)
            continue; // Cleared only by a producer completing.
        if (e.lineBlockers)
            continue; // Cleared only by an older entry completing.
        if (e.dmbBarrier != kNoSeq &&
            owner_.storesOlderIncomplete(e.dmbBarrier))
            continue; // Cleared only by older stores completing.
        return now;   // Push-eligible: the next tick acts on it.
    }
    return kNoCycle;
}

bool
WriteBuffer::appendLineBlockers(SeqNum seq,
                                std::vector<SeqNum> &out) const
{
    std::size_t idx = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].seq == seq) {
            idx = i;
            break;
        }
    }
    if (idx == entries_.size())
        return false;
    // Reports *which* older entries impose the ordering that
    // lineBlockers counts.
    for (std::size_t i = 0; i < idx; ++i) {
        if (lineOrders(entries_[i], entries_[idx]))
            out.push_back(entries_[i].seq);
    }
    return true;
}

bool
WriteBuffer::holds(SeqNum seq) const
{
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), seq,
        [](const WbEntry &e, SeqNum s) { return e.seq < s; });
    return it != entries_.end() && it->seq == seq;
}

bool
WriteBuffer::clearEdeGates(SeqNum seq)
{
    for (WbEntry &e : entries_) {
        if (e.seq != seq)
            continue;
        const bool had = e.srcId != kNoSeq || e.srcId2 != kNoSeq;
        e.srcId = kNoSeq;
        e.srcId2 = kNoSeq;
        return had;
    }
    return false;
}

std::pair<SeqNum, bool>
WriteBuffer::youngestOverlap(Addr addr, std::uint8_t size) const
{
    const Addr lo = addr;
    const Addr hi = addr + size;
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (!opIsStore(it->si.op))
            continue;
        const Addr slo = it->addr;
        const Addr shi = it->addr + it->size;
        if (slo < hi && lo < shi) {
            const bool covers = slo <= lo && hi <= shi;
            return {it->seq, covers};
        }
    }
    return {kNoSeq, false};
}

} // namespace ede
