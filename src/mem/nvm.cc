#include "mem/nvm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ede {

NvmDevice::LineIndex::LineIndex(std::uint32_t capacity)
{
    std::size_t cells = 2;
    while (cells < 2 * static_cast<std::size_t>(capacity))
        cells *= 2;
    cells_.resize(cells);
    mask_ = cells - 1;
}

std::size_t
NvmDevice::LineIndex::home(Addr line) const
{
    // Fibonacci hashing of the line address; the low bits of a media
    // line are always zero, the high product bits are well mixed.
    return static_cast<std::size_t>(
               (line * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
}

std::uint32_t
NvmDevice::LineIndex::find(Addr line) const
{
    for (std::size_t i = home(line);; i = (i + 1) & mask_) {
        const Cell &c = cells_[i];
        if (c.slot == kNoSlot)
            return kNoSlot;
        if (c.line == line)
            return c.slot;
    }
}

void
NvmDevice::LineIndex::insert(Addr line, std::uint32_t slot)
{
    std::size_t i = home(line);
    while (cells_[i].slot != kNoSlot)
        i = (i + 1) & mask_;
    cells_[i] = Cell{line, slot};
}

void
NvmDevice::LineIndex::erase(Addr line)
{
    std::size_t i = home(line);
    while (cells_[i].line != line || cells_[i].slot == kNoSlot)
        i = (i + 1) & mask_;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move them before their home.
    for (std::size_t j = (i + 1) & mask_; cells_[j].slot != kNoSlot;
         j = (j + 1) & mask_) {
        const std::size_t h = home(cells_[j].line);
        const bool movable = i <= j ? (h <= i || h > j)
                                    : (h <= i && h > j);
        if (movable) {
            cells_[i] = cells_[j];
            i = j;
        }
    }
    cells_[i] = Cell{};
}

NvmDevice::NvmDevice(NvmParams params)
    : params_(params), index_(params.bufferSlots),
      occupancy_(params.bufferSlots, 1)
{
    slots_.resize(params_.bufferSlots);
    freeSlots_.reserve(params_.bufferSlots);
    for (std::uint32_t i = params_.bufferSlots; i-- > 0;)
        freeSlots_.push_back(i);
    inflight_.reserve(params_.mediaWriters);
    readPortFree_.assign(params_.mediaReaders, 0);
}

bool
NvmDevice::acceptWrite(const MemReq &req, Cycle now, bool is_clean)
{
    const Addr line = mediaLine(req.addr);
    const std::uint32_t id = index_.find(line);
    if (id != kNoSlot) {
        ++stats_.writesCoalesced;
        // A write being pushed to the media cannot absorb new data;
        // coalescing into it would lose the update.  Re-arm the slot:
        // it waits again, keeping its insertion order.
        Slot &slot = slots_[id];
        if (slot.writing) {
            slot.writing = false;
            slot.enqueued = now;
            inflight_.erase(
                std::find(inflight_.begin(), inflight_.end(), id));
            waiting_.push(Waiting{now, slot.order, id});
        }
    } else {
        if (freeSlots_.empty()) {
            ++stats_.bufferFullRejects;
            return false;
        }
        const std::uint32_t fresh = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[fresh] = Slot{line, now, nextOrder_++, false, 0};
        index_.insert(line, fresh);
        ++live_;
        waiting_.push(Waiting{now, slots_[fresh].order, fresh});
    }
    ++stats_.writesAccepted;
    if (is_clean) {
        ++stats_.cleansAccepted;
        completions_.push(Pending{now + params_.bufferAccept,
                                  MemResp{req.id, ReqKind::Clean,
                                          req.addr, req.core}});
    }
    // The buffer is inside the persistence domain (ADR): entering it
    // makes the data crash-durable.
    if (persistHook_) {
        persistHook_(req.addr, req.size ? req.size : 64, now, req.origin,
                     req.core);
    }
    return true;
}

void
NvmDevice::startWrite(std::uint32_t id, Cycle now)
{
    Slot &slot = slots_[id];
    slot.writing = true;
    slot.writeDone = now + params_.writeLatency;
    auto pos = inflight_.begin();
    while (pos != inflight_.end() && slots_[*pos].order < slot.order)
        ++pos;
    inflight_.insert(pos, id);
}

bool
NvmDevice::tryAccept(const MemReq &req, Cycle now)
{
    lastRejectTransient_ = false;
    switch (req.kind) {
      case ReqKind::Writeback:
      case ReqKind::Clean: {
        if (acceptFault_ && acceptFault_(req, now)) {
            ++stats_.transientRejects;
            lastRejectTransient_ = true;
            return false;
        }
        return acceptWrite(req, now,
                           /*is_clean=*/req.kind == ReqKind::Clean);
      }
      case ReqKind::Read:
      case ReqKind::Write: {
        if (readQ_.size() >= params_.readQueueDepth)
            return false;
        readQ_.push_back(req);
        return true;
      }
    }
    return false;
}

void
NvmDevice::tick(Cycle now, std::vector<MemResp> &out)
{
    while (!completions_.empty() && completions_.top().due <= now) {
        out.push_back(completions_.top().resp);
        completions_.pop();
    }

    // Media read ports.
    while (!readQ_.empty()) {
        const MemReq &req = readQ_.front();
        const Addr line = mediaLine(req.addr);
        if (index_.find(line) != kNoSlot) {
            // Served from the pending-write buffer.
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

    // Media write ports: finish in-flight writes (in insertion
    // order), then launch waiting ones oldest-first.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        const Slot &slot = slots_[*it];
        if (slot.writeDone > now) {
            ++it;
            continue;
        }
        ++stats_.mediaWrites;
        // Fig. 10 sample: pending writes when a store reaches the
        // media (the completing write still occupies its slot).
        occupancy_.sample(live_);
        if (mediaWriteHook_)
            mediaWriteHook_(slot.lineAddr, now);
        index_.erase(slot.lineAddr);
        freeSlots_.push_back(*it);
        --live_;
        it = inflight_.erase(it);
    }
    while (inflight_.size() < params_.mediaWriters && !waiting_.empty()) {
        const std::uint32_t id = waiting_.top().slot;
        waiting_.pop();
        startWrite(id, now);
    }
}

bool
NvmDevice::idle() const
{
    return live_ == 0 && readQ_.empty() && completions_.empty();
}

Cycle
NvmDevice::nextEventCycle(Cycle now) const
{
    Cycle next = kNoCycle;
    if (!completions_.empty())
        next = std::min(next, std::max(now, completions_.top().due));
    if (!readQ_.empty()) {
        // The queue head waits for a media read port; a buffer hit
        // can only appear through a new write accept, which is core
        // activity that ends any skip window on its own.
        const Cycle port = *std::min_element(readPortFree_.begin(),
                                             readPortFree_.end());
        next = std::min(next, std::max(now, port));
    }
    for (std::uint32_t id : inflight_)
        next = std::min(next, std::max(now, slots_[id].writeDone));
    // Writer slots free only at a writeDone (covered above), but be
    // defensive: a launchable slot with a free writer acts this cycle.
    if (!waiting_.empty() && inflight_.size() < params_.mediaWriters)
        next = std::min(next, now);
    return next;
}

} // namespace ede
