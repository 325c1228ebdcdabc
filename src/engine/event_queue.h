/**
 * @file
 * Discrete-event simulation engine.
 *
 * All simulator components share one EventQueue. Components schedule
 * callbacks at absolute cycle times; the engine pops events in (time,
 * insertion-order) order, which gives deterministic execution. Skipping
 * directly to the next event makes long stalls (e.g., PCIe far-fault
 * transfers lasting tens of microseconds) cheap to simulate.
 *
 * Storage (DESIGN.md §11): callbacks live in a slab indexed by slot.
 * Slots are recycled through a LIFO free list, so steady-state
 * scheduling allocates nothing and slot reuse is deterministic. Nearly
 * every event is due within a few hundred cycles, so the order lives in
 * a bucket wheel of kWheelSize one-cycle buckets: an event due less than
 * kWheelSize cycles ahead is appended to the FIFO of bucket
 * `when % kWheelSize`, threaded through a `next` array beside the slab,
 * and a 256-bit occupancy mask finds the next non-empty bucket. Schedule
 * and dispatch are O(1). Events due further ahead wait in a (when, seq)
 * binary heap of 24-byte records; whenever the clock advances, every far
 * event now within kWheelSize cycles moves into its bucket before
 * anything else runs.
 *
 * Order: dispatch follows exactly the (when, seq) order of one binary
 * heap. Every wheel event lies in [now, now + kWheelSize), so a bucket
 * only ever holds one cycle, and appends happen in schedule (= seq)
 * order. A far event for cycle T reaches its bucket as soon as
 * now > T - kWheelSize, which is also the first moment a schedule() can
 * append to T directly; it was scheduled earlier, so it precedes every
 * such append in seq order too.
 *
 * Move-pop contract: dispatch moves the callback out of its slab slot
 * before invoking it, leaving the slot's InlineFunction empty (the
 * moved-from state); the freed slot is reusable immediately, including
 * by events the running callback schedules.
 *
 * Thread-safety: an EventQueue is strictly single-threaded state. Every
 * simulation owns its own queue; concurrent simulations (SweepRunner)
 * each run on their own thread with their own EventQueue and never share
 * one. See DESIGN.md, "Thread-safety contract".
 */

#ifndef MOSAIC_ENGINE_EVENT_QUEUE_H
#define MOSAIC_ENGINE_EVENT_QUEUE_H

#include <array>
#include <bit>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "ckpt/serde.h"
#include "common/inline_function.h"
#include "common/log.h"
#include "common/types.h"

namespace mosaic {

/** Central ordered queue of simulation events. */
class EventQueue
{
  public:
    using Callback = SimCallback;

    /** Span of the bucket wheel in cycles, one bucket per cycle. */
    static constexpr Cycles kWheelSize = 256;

    /** Current simulation time in cycles. */
    Cycles now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return wheelEvents_ + far_.size(); }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Sentinel for nextEventAt() when the queue is empty. */
    static constexpr Cycles kNoEvent = ~Cycles{0};

    /**
     * Timestamp of the earliest pending event, or kNoEvent when empty.
     * O(1): the earliest occupied bucket is cached. The sharded engine's
     * epoch scheduler calls this on every lane every epoch to skip
     * windows in which no lane has work (long PCIe transfers, DRAM
     * stalls).
     */
    Cycles
    nextEventAt() const
    {
        if (wheelEvents_ != 0)
            return wheelNext_;
        return far_.empty() ? kNoEvent : far_.top().when;
    }

    /**
     * Pre-sizes the callback slab and the far heap for
     * @p expectedEvents concurrently-pending events. Purely a
     * performance hint: the simulation assembly knows roughly how many
     * warps, walks, and transfers can be in flight, and reserving up
     * front avoids the doubling reallocations during warm-up.
     */
    void
    reserve(std::size_t expectedEvents)
    {
        slab_.reserve(expectedEvents);
        next_.reserve(expectedEvents);
        freeSlots_.reserve(expectedEvents);
        far_.reserve(expectedEvents);
    }

    /** Current callback slab capacity (events), for tests/benchmarks. */
    std::size_t capacity() const { return slab_.capacity(); }

    /**
     * Schedules @p fn to run at absolute time @p when.
     * @pre when >= now().
     */
    void
    schedule(Cycles when, Callback fn)
    {
        MOSAIC_ASSERT(when >= now_, "scheduling event in the past");
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            // Growing: move the callback straight into the new slot
            // instead of default-constructing and assigning over it.
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(std::move(fn));
            next_.push_back(kNil);
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slab_[slot] = std::move(fn);
        }
        const std::uint64_t seq = nextSeq_++;
        if (when - now_ < kWheelSize)
            append(when, slot);
        else
            far_.push(Event{when, seq, slot});
    }

    /** Schedules @p fn to run @p delay cycles from now. */
    void
    scheduleAfter(Cycles delay, Callback fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /**
     * Executes the next event, advancing time to its timestamp.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (wheelEvents_ == 0) {
            if (far_.empty())
                return false;
            advanceTo(far_.top().when);
        }
        dispatchNext();
        return true;
    }

    /**
     * Runs events until the queue drains or time would pass @p limit.
     * Leaves events at time > limit pending; sets now() to at most limit.
     */
    void
    runUntil(Cycles limit)
    {
        while (!empty() && nextEventAt() <= limit)
            runOne();
        if (now_ < limit)
            advanceTo(limit);
    }

    /** Runs all events to completion (use only in tests). */
    void
    runAll()
    {
        while (runOne()) {
        }
    }

    /**
     * Checkpoint hook (DESIGN.md §14). A checkpoint is only taken with
     * the queue fully drained (the quiesce protocol), so the
     * serializable state reduces to the three clocks. The slab, wheel
     * and far heap are payload-only storage -- empty after a drain --
     * and dispatch follows (when, seq), so restoring the clocks and
     * re-scheduling the resume events in a canonical order reproduces
     * the exact event order of a run that was never saved.
     * @pre on load, the queue is empty (quiesced).
     */
    void
    serialize(ckpt::Archive &ar)
    {
        MOSAIC_ASSERT(!ar.loading() || empty(),
                      "restoring the clock of a non-quiesced queue");
        ar.io(now_);
        ar.io(nextSeq_);
        ar.io(executed_);
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr Cycles kWheelMask = kWheelSize - 1;
    static_assert(std::has_single_bit(kWheelSize) && kWheelSize % 64 == 0,
                  "the wheel is indexed by mask and scanned by 64-bit word");

    /** A far event: due kWheelSize or more cycles after it was queued. */
    struct Event
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;  ///< index of the callback in the slab

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /** priority_queue with reserve() on the backing vector. */
    struct FarHeap
        : std::priority_queue<Event, std::vector<Event>, std::greater<>>
    {
        void reserve(std::size_t n) { c.reserve(n); }
    };

    /** FIFO of the slots due in one cycle, linked through next_. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /**
     * Appends @p slot to the FIFO of cycle @p when.
     * @pre now_ <= when < now_ + kWheelSize
     */
    void
    append(Cycles when, std::uint32_t slot)
    {
        const auto b = static_cast<std::size_t>(when & kWheelMask);
        Bucket &bucket = buckets_[b];
        next_[slot] = kNil;
        if (bucket.head == kNil) {
            bucket.head = slot;
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
        } else {
            next_[bucket.tail] = slot;
        }
        bucket.tail = slot;
        ++wheelEvents_;
        if (when < wheelNext_)
            wheelNext_ = when;
    }

    /**
     * Moves the clock to @p when and every far event now within the
     * wheel's span into its bucket, in (when, seq) order.
     * @pre no pending event is before @p when
     */
    void
    advanceTo(Cycles when)
    {
        now_ = when;
        while (!far_.empty() && far_.top().when - now_ < kWheelSize) {
            append(far_.top().when, far_.top().slot);
            far_.pop();
        }
    }

    /**
     * Circular distance from bucket @p start to the first occupied
     * bucket. @pre some bucket is occupied
     */
    std::size_t
    distanceToOccupied(std::size_t start) const
    {
        std::size_t word = start / 64;
        std::uint64_t bits =
            occupied_[word] & (~std::uint64_t{0} << (start % 64));
        // On wrap-around the start word is read again whole; its bits at
        // and above start are known clear, so a hit there lies below it.
        while (bits == 0) {
            word = (word + 1) % occupied_.size();
            bits = occupied_[word];
        }
        return (word * 64 + static_cast<std::size_t>(std::countr_zero(bits)) -
                start) &
               kWheelMask;
    }

    /** Pops and runs the earliest wheel event. @pre wheelEvents_ != 0 */
    void
    dispatchNext()
    {
        const Cycles when = wheelNext_;
        const auto b = static_cast<std::size_t>(when & kWheelMask);
        Bucket &bucket = buckets_[b];
        const std::uint32_t slot = bucket.head;
        bucket.head = next_[slot];
        --wheelEvents_;
        if (bucket.head == kNil) {
            occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
            wheelNext_ =
                wheelEvents_ == 0
                    ? kNoEvent
                    : when + 1 + distanceToOccupied((b + 1) & kWheelMask);
        }
        if (when != now_)
            advanceTo(when);
        ++executed_;
        // Move the callback out and free its slot before invoking: the
        // callback may schedule new events, which can then reuse the
        // slot. The moved-from slab entry is empty per the InlineFunction
        // contract and is simply overwritten on reuse.
        Callback fn = std::move(slab_[slot]);
        freeSlots_.push_back(slot);
        fn();
    }

    std::vector<Callback> slab_;
    std::vector<std::uint32_t> next_;  ///< bucket FIFO link per slab slot
    std::vector<std::uint32_t> freeSlots_;
    std::array<Bucket, kWheelSize> buckets_{};
    std::array<std::uint64_t, kWheelSize / 64> occupied_{};
    std::size_t wheelEvents_ = 0;
    Cycles wheelNext_ = kNoEvent;  ///< earliest occupied bucket's cycle
    FarHeap far_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_ENGINE_EVENT_QUEUE_H
