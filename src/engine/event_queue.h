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
 * Storage is split in two (DESIGN.md §11): the binary heap orders
 * trivial 24-byte {when, seq, slot} records, while the callbacks live in
 * a stable side slab indexed by slot. Heap sift operations therefore
 * move three words instead of a fat callback object, and the callback
 * type can afford a generous inline-capture buffer (SimCallback, 96
 * bytes) without bloating every heap swap. Slots are recycled through a
 * LIFO free list, so steady-state scheduling allocates nothing and slot
 * reuse is deterministic.
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

    /** Current simulation time in cycles. */
    Cycles now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return queue_.size(); }

    /** True when no events remain. */
    bool empty() const { return queue_.empty(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Sentinel for nextEventAt() when the queue is empty. */
    static constexpr Cycles kNoEvent = ~Cycles{0};

    /**
     * Timestamp of the earliest pending event, or kNoEvent when empty.
     * The sharded engine's epoch scheduler uses this to skip windows in
     * which no lane has work (long PCIe transfers, DRAM stalls).
     */
    Cycles
    nextEventAt() const
    {
        return queue_.empty() ? kNoEvent : queue_.top().when;
    }

    /**
     * Pre-sizes the heap and the callback slab for @p expectedEvents
     * concurrently-pending events. Purely a performance hint: the
     * simulation assembly knows roughly how many warps, walks, and
     * transfers can be in flight, and reserving up front avoids the
     * doubling reallocations during warm-up.
     */
    void
    reserve(std::size_t expectedEvents)
    {
        queue_.reserve(expectedEvents);
        slab_.reserve(expectedEvents);
        freeSlots_.reserve(expectedEvents);
    }

    /** Current heap storage capacity (events), for tests/benchmarks. */
    std::size_t capacity() const { return queue_.capacity(); }

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
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slab_[slot] = std::move(fn);
        }
        queue_.push(Event{when, nextSeq_++, slot});
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
        if (queue_.empty())
            return false;
        dispatchTop();
        return true;
    }

    /**
     * Runs events until the queue drains or time would pass @p limit.
     * Leaves events at time > limit pending; sets now() to at most limit.
     */
    void
    runUntil(Cycles limit)
    {
        while (!queue_.empty() && queue_.top().when <= limit)
            dispatchTop();
        if (now_ < limit)
            now_ = limit;
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
     * serializable state reduces to the three clocks. The slab and its
     * free list are payload-only storage — empty after a drain — and the
     * heap orders by (when, seq), so restoring the clocks and
     * re-scheduling the resume events in a canonical order reproduces
     * the exact event order of a run that was never saved.
     * @pre on load, the queue is empty (quiesced).
     */
    void
    serialize(ckpt::Archive &ar)
    {
        MOSAIC_ASSERT(!ar.loading() || queue_.empty(),
                      "restoring the clock of a non-quiesced queue");
        ar.io(now_);
        ar.io(nextSeq_);
        ar.io(executed_);
    }

  private:
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

    /** priority_queue with reserve()/capacity() on the backing vector. */
    struct Heap
        : std::priority_queue<Event, std::vector<Event>, std::greater<>>
    {
        void reserve(std::size_t n) { c.reserve(n); }
        std::size_t capacity() const { return c.capacity(); }
    };


    /** Pops and runs the top event. @pre !queue_.empty() */
    void
    dispatchTop()
    {
        const Event ev = queue_.top();  // trivial 24-byte copy
        queue_.pop();
        now_ = ev.when;
        ++executed_;
        // Move the callback out and free its slot before invoking: the
        // callback may schedule new events, which can then reuse the
        // slot. The moved-from slab entry is empty per the InlineFunction
        // contract and is simply overwritten on reuse.
        Callback fn = std::move(slab_[ev.slot]);
        freeSlots_.push_back(ev.slot);
        fn();
    }

    Heap queue_;
    std::vector<Callback> slab_;
    std::vector<std::uint32_t> freeSlots_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_ENGINE_EVENT_QUEUE_H
