/**
 * @file
 * ShardedEngine driven directly, without a simulation (DESIGN.md §12).
 *
 * Synthetic tokens walk between SM lanes, the control lane and hub
 * sub-lanes through every routing call -- toHub, toSm, callSm, smToSub,
 * controlToSub, subToControl, subToSub, subToSm -- and log each hop on
 * the lane it runs on. A token's next hop is a pure function of the
 * token itself, so every log depends only on the engine's delivery
 * order. The scenario has windows with no busy SM lane, with one, and
 * with many, plus one control event that sleeps long enough for
 * spinning workers to park. Logs, clocks and the simulated self-profile
 * must be identical for every worker count, and an engine that never
 * has two busy lanes in one phase must start no thread.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/sharded_engine.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

constexpr unsigned kSms = 8;
constexpr unsigned kSubs = 3;

/** How a token reached the lane that logged it. */
enum class Route : std::uint8_t {
    Seed,
    Local,
    ToHub,
    ToSm,
    CallSm,
    SmToSub,
    ControlToSub,
    SubToControl,
    SubToSub,
    SubToSm,
    Count
};

/** One logged hop: when it ran, which token, and how it arrived. */
struct Hop
{
    Cycles at;
    std::uint32_t token;
    Route route;

    bool
    operator==(const Hop &o) const
    {
        return std::tie(at, token, route) == std::tie(o.at, o.token, o.route);
    }
};

/** A walking token; it carries its own RNG so its path is its own. */
struct Token
{
    std::uint32_t id;
    std::uint32_t hopsLeft;
    Rng rng;
};

/** An engine plus one execution log per lane. */
class Rig
{
  public:
    explicit Rig(unsigned workers)
        : engine(kSms, workers), smLog(kSms), subLog(kSubs)
    {
        engine.enableHubSubLanes(kSubs);
    }

    /** Seeds a token on SM lane @p sm at @p when. */
    void
    seedSm(unsigned sm, Cycles when, Token t)
    {
        engine.laneQueue(static_cast<SmId>(sm))
            .schedule(when, [this, sm, t]() mutable {
                onSm(sm, t, Route::Seed);
            });
    }

    /** Seeds a token on the control lane at @p when. */
    void
    seedControl(Cycles when, Token t)
    {
        engine.hubQueue().schedule(
            when, [this, t]() mutable { onControl(t, Route::Seed); });
    }

    /** A control event at @p when that blocks the coordinator ~2 ms. */
    void
    seedSleep(Cycles when)
    {
        engine.hubQueue().schedule(when, [this] {
            controlLog.push_back(Hop{engine.hubQueue().now(), ~0u,
                                     Route::Seed});
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
    }

    ShardedEngine engine;
    std::vector<std::vector<Hop>> smLog;  ///< written only by lane i
    std::vector<Hop> controlLog;
    std::vector<std::vector<Hop>> subLog;  ///< written only by sub c

  private:
    // Each handler touches only its own lane's log and queue plus the
    // routing calls that lane may make, as simulation components do.
    void
    onSm(unsigned sm, Token t, Route how)
    {
        EventQueue &q = engine.laneQueue(static_cast<SmId>(sm));
        smLog[sm].push_back(Hop{q.now(), t.id, how});
        if (t.hopsLeft-- == 0)
            return;
        const Cycles now = q.now();
        const auto delay = static_cast<Cycles>(t.rng.below(12));
        switch (t.rng.below(4)) {
        case 0:
        case 1:
            q.schedule(now + 1 + delay, [this, sm, t]() mutable {
                onSm(sm, t, Route::Local);
            });
            break;
        case 2:
            engine.toHub(static_cast<SmId>(sm), now + delay,
                         [this, t]() mutable { onControl(t, Route::ToHub); });
            break;
        default: {
            const auto sub = static_cast<unsigned>(t.rng.below(kSubs));
            engine.smToSub(static_cast<SmId>(sm), sub, now + delay,
                           [this, sub, t]() mutable {
                               onSub(sub, t, Route::SmToSub);
                           });
        }
        }
    }

    void
    onControl(Token t, Route how)
    {
        const Cycles now = engine.hubQueue().now();
        controlLog.push_back(Hop{now, t.id, how});
        if (t.hopsLeft-- == 0)
            return;
        const auto delay = static_cast<Cycles>(t.rng.below(12));
        const auto sm = static_cast<unsigned>(t.rng.below(kSms));
        const auto sub = static_cast<unsigned>(t.rng.below(kSubs));
        switch (t.rng.below(3)) {
        case 0:
            engine.toSm(static_cast<SmId>(sm),
                        now + ShardedEngine::kWindowCycles + delay,
                        [this, sm, t]() mutable {
                            onSm(sm, t, Route::ToSm);
                        });
            break;
        case 1:
            engine.callSm(static_cast<SmId>(sm), [this, sm, t]() mutable {
                onSm(sm, t, Route::CallSm);
            });
            break;
        default:
            engine.controlToSub(sub, now + delay, [this, sub, t]() mutable {
                onSub(sub, t, Route::ControlToSub);
            });
        }
    }

    void
    onSub(unsigned sub, Token t, Route how)
    {
        EventQueue &q = engine.subQueue(sub);
        subLog[sub].push_back(Hop{q.now(), t.id, how});
        if (t.hopsLeft-- == 0)
            return;
        const Cycles now = q.now();
        const auto delay = static_cast<Cycles>(t.rng.below(12));
        switch (t.rng.below(3)) {
        case 0: {
            const auto sm = static_cast<unsigned>(t.rng.below(kSms));
            engine.subToSm(sub, static_cast<SmId>(sm), now + delay,
                           [this, sm, t]() mutable {
                               onSm(sm, t, Route::SubToSm);
                           });
            break;
        }
        case 1:
            engine.subToControl(sub, now + delay, [this, t]() mutable {
                onControl(t, Route::SubToControl);
            });
            break;
        default: {
            const auto dst = static_cast<unsigned>(t.rng.below(kSubs));
            engine.subToSub(sub, dst, now + delay, [this, dst, t]() mutable {
                onSub(dst, t, Route::SubToSub);
            });
        }
        }
    }
};

/**
 * The scenario: one token alone on SM lane 3 (windows with one busy SM
 * lane), one token on the control lane (windows with no busy SM lane),
 * then a crowd of tokens from cycle 4000 (many busy lanes), with the
 * 2 ms control-lane sleep in the middle of the crowd.
 */
void
runScenario(Rig &rig)
{
    rig.seedSm(3, 0, Token{0, 40, Rng(1)});
    rig.seedControl(0, Token{1, 60, Rng(2)});
    for (std::uint32_t i = 0; i < 48; ++i)
        rig.seedSm(i % kSms, 4000 + i, Token{2 + i, 200, Rng(100 + i)});
    rig.seedSleep(4600);
    rig.engine.drain();
}

/** Number of threads in this process. */
std::size_t
threadCount()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(begin(tasks), end(tasks)));
}

TEST(ShardedEngineTest, LogsAndClocksAreWorkerCountInvariant)
{
    Rig ref(1);
    runScenario(ref);

    // The scenario must reach every route, or it proves nothing.
    std::vector<bool> seen(static_cast<std::size_t>(Route::Count));
    auto mark = [&seen](const std::vector<Hop> &log) {
        for (const Hop &h : log)
            seen[static_cast<std::size_t>(h.route)] = true;
    };
    for (const auto &log : ref.smLog)
        mark(log);
    for (const auto &log : ref.subLog)
        mark(log);
    mark(ref.controlLog);
    for (std::size_t r = 0; r < seen.size(); ++r)
        EXPECT_TRUE(seen[r]) << "route " << r << " never taken";

    const EngineShardProfile refProfile = ref.engine.profile();
    EXPECT_EQ(refProfile.pooledPhases, 0u);

    for (const unsigned n : {2u, 3u, 8u}) {
        SCOPED_TRACE("workers = " + std::to_string(n));
        Rig rig(n);
        runScenario(rig);
        EXPECT_EQ(rig.smLog, ref.smLog);
        EXPECT_EQ(rig.controlLog, ref.controlLog);
        EXPECT_EQ(rig.subLog, ref.subLog);
        for (unsigned i = 0; i < kSms; ++i)
            EXPECT_EQ(rig.engine.laneQueue(static_cast<SmId>(i)).now(),
                      ref.engine.laneQueue(static_cast<SmId>(i)).now());
        for (unsigned c = 0; c < kSubs; ++c)
            EXPECT_EQ(rig.engine.subQueue(c).now(),
                      ref.engine.subQueue(c).now());
        EXPECT_EQ(rig.engine.hubQueue().now(), ref.engine.hubQueue().now());
        EXPECT_EQ(rig.engine.windowStart(), ref.engine.windowStart());

        const EngineShardProfile p = rig.engine.profile();
        EXPECT_EQ(p.epochs, refProfile.epochs);
        EXPECT_EQ(p.laneEvents, refProfile.laneEvents);
        EXPECT_EQ(p.laneOutMsgs, refProfile.laneOutMsgs);
        EXPECT_EQ(p.laneBusyWindows, refProfile.laneBusyWindows);
        EXPECT_EQ(p.subEvents, refProfile.subEvents);
        EXPECT_EQ(p.subOutMsgs, refProfile.subOutMsgs);
        EXPECT_EQ(p.subBusyWindows, refProfile.subBusyWindows);
        EXPECT_EQ(p.hubBusyWindows, refProfile.hubBusyWindows);
        EXPECT_EQ(p.hubToSmTimed, refProfile.hubToSmTimed);
        EXPECT_EQ(p.hubToSmDeferred, refProfile.hubToSmDeferred);
        // Every phase is counted once; the crowd needs the pool, the
        // lone tokens do not.
        EXPECT_EQ(p.workers, n);
        EXPECT_EQ(p.pooledPhases + p.inlinePhases,
                  refProfile.inlinePhases);
        EXPECT_GT(p.pooledPhases, 0u);
        EXPECT_GT(p.inlinePhases, 0u);
    }
}

TEST(ShardedEngineTest, NoThreadStartsWithoutTwoBusyLanes)
{
    const std::size_t before = threadCount();
    {
        // One token: at most one lane has an event due in any phase.
        Rig rig(4);
        rig.seedSm(5, 0, Token{0, 400, Rng(7)});
        rig.engine.drain();
        EXPECT_GT(rig.smLog[5].size(), 1u);
        EXPECT_EQ(threadCount(), before);
        EXPECT_EQ(rig.engine.profile().pooledPhases, 0u);
        EXPECT_EQ(rig.engine.workers(), 4u);
    }
    {
        // The same count sees the pool once a phase needs it.
        Rig rig(2);
        runScenario(rig);
        EXPECT_EQ(threadCount(), before + 1);
    }
    EXPECT_EQ(threadCount(), before);
}

TEST(ShardedEngineDeathTest, InterconnectShorterThanWindowIsRejected)
{
    Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.05);
    SimConfig c = SimConfig::mosaicDefault().withEngineShards(2);
    c.caches.interconnectCycles = ShardedEngine::kWindowCycles - 1;
    EXPECT_EXIT(runSimulation(w, c), ::testing::ExitedWithCode(1),
                "config caches.interconnectCycles: 7 is below the sharded "
                "engine's 8-cycle lookahead window");
}

}  // namespace
}  // namespace mosaic
