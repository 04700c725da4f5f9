/**
 * @file
 * Sequence-indexed pipeline bookkeeping: the reorder buffer as a ring
 * with O(1) lookup by sequence number, and a small age-ordered set of
 * sequence numbers.
 *
 * Sequence numbers are handed out in dispatch order and never reused,
 * so the ROB holds them in ascending order.  They are contiguous
 * except where a squash discarded the tail: the instructions
 * dispatched after a squash continue from the next unused number.
 * The ROB therefore records its contents as a few *runs* of
 * consecutive sequence numbers (one run until the first squash; a new
 * run starts at each dispatch that follows one), and a lookup is the
 * run search plus one offset.
 */

#ifndef EDE_PIPELINE_ROB_HH
#define EDE_PIPELINE_ROB_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "pipeline/inflight.hh"

namespace ede {

/** The reorder buffer: a ring of InflightInst, oldest first. */
class Rob
{
  public:
    explicit Rob(std::size_t capacity)
    {
        std::size_t cells = 1;
        while (cells < capacity)
            cells *= 2;
        buf_.resize(cells);
        mask_ = cells - 1;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** @p i-th oldest entry. */
    InflightInst &operator[](std::size_t i)
    {
        return buf_[(head_ + i) & mask_];
    }
    const InflightInst &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    InflightInst &front() { return (*this)[0]; }
    const InflightInst &front() const { return (*this)[0]; }
    InflightInst &back() { return (*this)[count_ - 1]; }

    /**
     * Append a fresh entry for @p seq, which must be younger than
     * every entry held.  @pre size() < capacity
     */
    InflightInst &
    push(SeqNum seq)
    {
        ede_assert(count_ <= mask_, "ROB ring overflow");
        ede_assert(count_ == 0 || back().seq < seq,
                   "ROB entries must arrive in sequence order");
        const std::uint64_t pos = head_ + count_;
        if (count_ == 0 || back().seq + 1 != seq)
            runs_.push_back(Run{seq, pos});
        InflightInst &in = buf_[pos & mask_];
        in = InflightInst{};
        in.seq = seq;
        ++count_;
        return in;
    }

    /** Remove the oldest entry (retirement). */
    void
    popFront()
    {
        ++head_;
        --count_;
        if (count_ == 0)
            runs_.clear();
        else if (runs_.size() > 1 && runs_[1].pos <= head_)
            runs_.erase(runs_.begin());
    }

    /** Remove the youngest entry (squash). */
    void
    popBack()
    {
        --count_;
        const std::uint64_t tail = head_ + count_;
        while (!runs_.empty() && runs_.back().pos >= tail)
            runs_.pop_back();
    }

    /** The entry holding @p seq, or nullptr when none does. */
    InflightInst *
    find(SeqNum seq)
    {
        for (std::size_t r = runs_.size(); r-- > 0;) {
            const Run &run = runs_[r];
            if (seq < run.seq)
                continue;
            const std::uint64_t end =
                r + 1 < runs_.size() ? runs_[r + 1].pos : head_ + count_;
            const std::uint64_t first = std::max(run.pos, head_);
            const std::uint64_t offset = seq - run.seq;
            if (offset >= end - run.pos || run.pos + offset < first)
                return nullptr;
            return &buf_[(run.pos + offset) & mask_];
        }
        return nullptr;
    }

    const InflightInst *
    find(SeqNum seq) const
    {
        return const_cast<Rob *>(this)->find(seq);
    }

    /** Oldest-first iteration. */
    template <typename Self, typename Ref>
    class Iter
    {
      public:
        Iter(Self *rob, std::size_t i) : rob_(rob), i_(i) {}
        Ref operator*() const { return (*rob_)[i_]; }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        Self *rob_;
        std::size_t i_;
    };
    using iterator = Iter<Rob, InflightInst &>;
    using const_iterator = Iter<const Rob, const InflightInst &>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

  private:
    /** Entries [pos, next run's pos) hold seq, seq + 1, ... */
    struct Run
    {
        SeqNum seq;
        std::uint64_t pos;
    };

    std::vector<InflightInst> buf_;
    std::size_t mask_ = 0;
    std::uint64_t head_ = 0;   ///< Absolute position of the oldest.
    std::size_t count_ = 0;
    std::vector<Run> runs_;    ///< Oldest first; usually one.
};

/**
 * An age-ordered set of sequence numbers: members join youngest-last,
 * leave from anywhere, and the oldest member is a constant-time head.
 * Replaces std::set for the pipeline's "oldest incomplete X" queries;
 * it never holds more than the ROB plus the write buffer.
 */
class SeqSet
{
  public:
    bool empty() const { return v_.empty(); }
    SeqNum front() const { return v_.front(); }

    /** Add @p seq, younger than every member. */
    void
    push(SeqNum seq)
    {
        ede_assert(v_.empty() || v_.back() < seq,
                   "SeqSet members must join in age order");
        v_.push_back(seq);
    }

    void
    erase(SeqNum seq)
    {
        auto it = std::lower_bound(v_.begin(), v_.end(), seq);
        if (it != v_.end() && *it == seq)
            v_.erase(it);
    }

    /** Drop every member younger than @p seq (squash). */
    void
    truncateAbove(SeqNum seq)
    {
        v_.erase(std::upper_bound(v_.begin(), v_.end(), seq), v_.end());
    }

    /** True when the oldest member is older than @p seq. */
    bool olderThan(SeqNum seq) const { return !v_.empty() && v_[0] < seq; }

    std::vector<SeqNum>::const_iterator begin() const { return v_.begin(); }
    std::vector<SeqNum>::const_iterator end() const { return v_.end(); }

  private:
    std::vector<SeqNum> v_;   ///< Ascending.
};

} // namespace ede

#endif // EDE_PIPELINE_ROB_HH
