/**
 * @file
 * Ring-buffer FIFO for the simulator's per-cycle queues.
 *
 * The cycle-stepped executor and the unit models move millions of
 * tokens and vectors through short FIFOs; std::deque allocates and
 * frees a block every few pushes (every push, for elements over 512
 * bytes), which dominated the stepping profile. RingQueue keeps its
 * elements in one power-of-two array indexed by free-running head/tail
 * counters, so a queue whose occupancy is bounded stops allocating
 * once it has grown to that bound. Popped slots are reused in place:
 * push_back copy-assigns into the slot, so an element buffer such as a
 * ShuffleVector's path vector keeps its capacity across reuse.
 *
 * The first allocation holds `first_capacity` elements (rounded up to
 * a power of two), so a caller that knows its bound (a SpMU issue
 * queue, a shuffle channel) allocates exactly once; a queue that
 * outgrows it doubles the array and re-linearizes.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace capstan::common {

/** Growable power-of-two ring-buffer FIFO with indexed access. */
template <typename T> class RingQueue
{
  public:
    RingQueue() = default;

    /** @param first_capacity Slots of the first allocation (>= 1). */
    explicit RingQueue(std::size_t first_capacity)
        : first_capacity_(std::bit_ceil(first_capacity))
    {
        CAPSTAN_CHECK(first_capacity > 0);
    }

    bool empty() const { return head_ == tail_; }

    std::size_t size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }

    T &front()
    {
        CAPSTAN_DCHECK(!empty());
        return buf_[head_ & mask_];
    }
    const T &front() const
    {
        CAPSTAN_DCHECK(!empty());
        return buf_[head_ & mask_];
    }

    /** Element @p i places behind the front (0 is the front). */
    T &operator[](std::size_t i)
    {
        CAPSTAN_DCHECK(i < size());
        return buf_[(head_ + i) & mask_];
    }
    const T &operator[](std::size_t i) const
    {
        CAPSTAN_DCHECK(i < size());
        return buf_[(head_ + i) & mask_];
    }

    /** Append @p v (which must not be an element of this queue). */
    void push_back(const T &v) { nextSlot() = v; }
    void push_back(T &&v) { nextSlot() = std::move(v); }

    /**
     * Append one element and return it for filling in place. The slot
     * still holds the element that last occupied it (or a default one),
     * so the caller must overwrite every field it relies on.
     */
    T &push_back_slot() { return nextSlot(); }

    /** Drop the front element; its slot (and buffers) are reused. */
    void pop_front()
    {
        CAPSTAN_DCHECK(!empty());
        ++head_;
    }

    void clear() { head_ = tail_ = 0; }

  private:
    /** Deep enough for most inter-stage bursts. */
    static constexpr std::size_t kDefaultFirstCapacity = 16;

    T &nextSlot()
    {
        if (size() == buf_.size())
            grow();
        return buf_[tail_++ & mask_];
    }

    void grow()
    {
        std::size_t cap =
            buf_.empty() ? first_capacity_ : buf_.size() * 2;
        CAPSTAN_CHECK(cap > size(), "ring capacity overflow");
        std::vector<T> next(cap);
        std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            next[i] = std::move(buf_[(head_ + i) & mask_]);
        buf_ = std::move(next);
        head_ = 0;
        tail_ = n;
        mask_ = cap - 1;
    }

    std::vector<T> buf_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    std::uint64_t mask_ = 0;
    std::size_t first_capacity_ = kDefaultFirstCapacity;
};

} // namespace capstan::common
