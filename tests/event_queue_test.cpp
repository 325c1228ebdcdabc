/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/event_queue.h"

namespace mosaic {
namespace {

TEST(EventQueueTest, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTimeEventsRunInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] {
            ++fired;
            q.scheduleAfter(3, [&] { ++fired; });
        });
    });
    q.runAll();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Cycles seen = 0;
    q.schedule(100, [&] { q.scheduleAfter(50, [&] { seen = q.now(); }); });
    q.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueueTest, ExecutedCountsEvents)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Cycles>(i), [] {});
    q.runAll();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueTest, ReserveGrowsCapacityWithoutChangingBehavior)
{
    EventQueue q;
    q.reserve(4096);
    EXPECT_GE(q.capacity(), 4096u);
    const std::size_t reserved = q.capacity();
    std::vector<int> order;
    for (int i = 99; i >= 0; --i)
        q.schedule(static_cast<Cycles>(i), [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.capacity(), reserved);  // no reallocation under the hint
    q.runAll();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, MovePopKeepsHeapCapturedCallbacksIntact)
{
    // Callbacks whose captures exceed std::function's small-buffer size
    // exercise the move-out-of-slot dispatch path: the moved-from
    // function left in the slab must never be invoked, and the order
    // must survive the reuse of a moved-from slot.
    EventQueue q;
    std::uint64_t sum = 0;
    struct Fat
    {
        std::uint64_t *sink;
        std::uint64_t a, b, c;
    };
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Fat fat{&sum, i, 1000, 1};
        // Reverse time order forces maximal sifting on every pop.
        q.schedule(static_cast<Cycles>(200 - i),
                   [fat] { *fat.sink += fat.a + fat.b + fat.c; });
    }
    q.runAll();
    // sum of (i + 1001) for i in [0, 200)
    EXPECT_EQ(sum, 199u * 200u / 2u + 200u * 1001u);
    EXPECT_EQ(q.executed(), 200u);
}

TEST(EventQueueTest, RunUntilInterleavesWithRescheduling)
{
    EventQueue q;
    std::vector<Cycles> fired;
    std::function<void()> tick = [&] {
        fired.push_back(q.now());
        if (q.now() < 100)
            q.scheduleAfter(10, tick);
    };
    q.schedule(0, tick);
    q.runUntil(55);
    EXPECT_EQ(fired, (std::vector<Cycles>{0, 10, 20, 30, 40, 50}));
    EXPECT_EQ(q.now(), 55u);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200);
    EXPECT_EQ(fired.back(), 100u);
    EXPECT_EQ(q.now(), 200u);
    EXPECT_TRUE(q.empty());
}

/**
 * The (when, seq) order the queue must reproduce, as the plain binary
 * heap it replaced: the reference for the randomized test below.
 */
class ReferenceQueue
{
  public:
    Cycles now() const { return now_; }
    std::size_t pending() const { return heap_.size(); }
    std::uint64_t executed() const { return executed_; }

    Cycles
    nextEventAt() const
    {
        return heap_.empty() ? EventQueue::kNoEvent : heap_.top().when;
    }

    void
    schedule(Cycles when, std::function<void()> fn)
    {
        heap_.push(Event{when, seq_++, std::move(fn)});
    }

    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        Event ev = heap_.top();
        heap_.pop();
        now_ = ev.when;
        ++executed_;
        ev.fn();
        return true;
    }

    void
    runUntil(Cycles limit)
    {
        while (!heap_.empty() && heap_.top().when <= limit)
            runOne();
        if (now_ < limit)
            now_ = limit;
    }

  private:
    struct Event
    {
        Cycles when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    Cycles now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

constexpr Cycles kW = EventQueue::kWheelSize;

/** Draws a delay from the classes where the wheel/heap split can break. */
Cycles
drawDelay(std::mt19937_64 &rng)
{
    const Cycles fixed[] = {0, 1, kW - 1, kW, kW + 1, 4 * kW, 100000};
    const std::uint64_t pick = rng() % 9;
    if (pick == 7)
        return 8 + rng() % 8;
    if (pick == 8)
        return 128 + rng() % 128;
    return fixed[pick];
}

/**
 * A random event program on queue type Q. Each event's children (0-2,
 * same-cycle ones included) come from an RNG seeded by the event's id,
 * so two queues run the same program exactly when they dispatch in the
 * same order; the log records (id, time) per dispatch.
 */
template <typename Q>
struct RandomProgram
{
    Q q;
    std::uint64_t seed;
    std::uint64_t nextId = 0;
    std::uint64_t idBudget;
    std::vector<std::pair<std::uint64_t, Cycles>> log;

    void
    spawn(Cycles delay)
    {
        const std::uint64_t id = nextId++;
        q.schedule(q.now() + delay, [this, id] { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        log.emplace_back(id, q.now());
        std::mt19937_64 rng(seed * 1000003 + id);
        const unsigned children = rng() % 3;
        for (unsigned i = 0; i < children && nextId < idBudget; ++i)
            spawn(drawDelay(rng));
    }
};

TEST(EventQueueTest, MatchesReferenceHeapOrderOnRandomPrograms)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomProgram<EventQueue> wheel{{}, seed, 0, 5000, {}};
        RandomProgram<ReferenceQueue> ref{{}, seed, 0, 5000, {}};
        std::mt19937_64 rng(seed);
        for (int i = 0; i < 48; ++i) {
            const Cycles d = drawDelay(rng);
            wheel.spawn(d);
            ref.spawn(d);
        }
        std::size_t checked = 0;
        for (int step = 0; ref.q.pending() != 0 || ref.nextId < ref.idBudget;
             ++step) {
            const std::uint64_t op = rng() % 8;
            if (op < 4) {
                EXPECT_EQ(wheel.q.runOne(), ref.q.runOne());
            } else {
                const Cycles ahead[] = {0, 1, kW / 2, 5 * kW};
                const Cycles limit = ref.q.now() + ahead[op - 4];
                wheel.q.runUntil(limit);
                ref.q.runUntil(limit);
            }
            // Root events scheduled from outside any callback, right
            // after a runUntil idle jump, test the far-event migration;
            // they also restart a program whose events all died out.
            if (rng() % 4 == 0 && ref.nextId < ref.idBudget) {
                const Cycles d = drawDelay(rng);
                wheel.spawn(d);
                ref.spawn(d);
            }
            ASSERT_EQ(wheel.log.size(), ref.log.size()) << "step " << step;
            for (; checked < ref.log.size(); ++checked)
                ASSERT_EQ(wheel.log[checked], ref.log[checked])
                    << "dispatch " << checked;
            ASSERT_EQ(wheel.q.now(), ref.q.now()) << "step " << step;
            ASSERT_EQ(wheel.q.nextEventAt(), ref.q.nextEventAt())
                << "step " << step;
            ASSERT_EQ(wheel.q.pending(), ref.q.pending()) << "step " << step;
            ASSERT_EQ(wheel.q.executed(), ref.q.executed())
                << "step " << step;
        }
        EXPECT_TRUE(wheel.q.empty());
        EXPECT_EQ(ref.log.size(), ref.idBudget);
    }
}

TEST(EventQueueTest, FarEventKeepsItsPlaceInABusyWheel)
{
    // A is far when scheduled; by the time B and C target the same
    // cycle, A must already sit at the head of that cycle's bucket,
    // although the wheel was never empty in between.
    EventQueue q;
    std::string order;
    q.schedule(kW + 10, [&] { order += 'A'; });
    q.schedule(200, [&] { order += 'D'; });
    q.runUntil(20);
    q.schedule(kW + 10, [&] { order += 'B'; });
    q.schedule(kW + 9, [&] { q.schedule(kW + 10, [&] { order += 'C'; }); });
    q.runAll();
    EXPECT_EQ(order, "DABC");
    EXPECT_EQ(q.now(), kW + 10);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

}  // namespace
}  // namespace mosaic
