/** @file Unit tests for the SM model: scheduling, lockstep, faults. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>

#include "common/rng.h"
#include "engine/event_queue.h"
#include "gpu/gpu.h"
#include "gpu/sm.h"
#include "mm/gpu_mmu_manager.h"

namespace mosaic {
namespace {

/** Scripted warp stream for precise control in tests. */
class ScriptedStream : public WarpStream
{
  public:
    explicit ScriptedStream(std::deque<WarpInstr> script)
        : script_(std::move(script))
    {
    }

    bool
    next(WarpInstr &out) override
    {
        if (script_.empty())
            return false;
        out = script_.front();
        script_.pop_front();
        return true;
    }

    void serialize(ckpt::Archive &) override {}

  private:
    std::deque<WarpInstr> script_;
};

WarpInstr
computeInstr(Cycles latency)
{
    WarpInstr i;
    i.isMemory = false;
    i.computeLatency = latency;
    return i;
}

WarpInstr
memInstr(std::initializer_list<Addr> lines, bool store = false)
{
    WarpInstr i;
    i.isMemory = true;
    i.isStore = store;
    for (const Addr a : lines)
        i.lineAddrs[i.numLines++] = a;
    return i;
}

struct SmRig
{
    EventQueue ev;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService xlate;
    RegionPtNodeAllocator alloc{1ull << 33, 64ull << 20};
    GpuMmuManager mgr{0, 64 * kLargePageSize};
    PageTable pt{0, alloc};
    PcieBus bus{ev, PcieConfig{}};
    DemandPager pager{ev, bus, mgr};
    bool done = false;

    explicit SmRig()
        : dram(ev, DramConfig{}),
          caches(ev, dram, CacheHierarchyConfig{}),
          walker(ev, caches, WalkerConfig{}),
          xlate(ev, walker, 2, TranslationConfig{})
    {
        mgr.setEnv(ManagerEnv{});
        mgr.registerApp(0, pt);
    }

    Sm
    makeSm(SmConfig cfg = SmConfig{})
    {
        return Sm(ev, 0, pt, xlate, caches, &pager, cfg,
                  [this] { done = true; });
    }
};

TEST(SmTest, RunsAllInstructionsAndSignalsCompletion)
{
    SmRig rig;
    Sm sm = rig.makeSm();
    std::deque<WarpInstr> script;
    for (int i = 0; i < 10; ++i)
        script.push_back(computeInstr(2));
    sm.addWarp(std::make_unique<ScriptedStream>(script));
    sm.start(0);
    rig.ev.runAll();
    EXPECT_TRUE(rig.done);
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.stats().instructions, 10u);
    EXPECT_EQ(sm.stats().memInstructions, 0u);
}

TEST(SmTest, IssuesAtMostOneInstructionPerCycle)
{
    SmRig rig;
    Sm sm = rig.makeSm();
    // Two warps of back-to-back 1-cycle compute: 20 instructions need at
    // least 20 cycles through one issue port.
    for (int w = 0; w < 2; ++w) {
        std::deque<WarpInstr> script;
        for (int i = 0; i < 10; ++i)
            script.push_back(computeInstr(1));
        sm.addWarp(std::make_unique<ScriptedStream>(script));
    }
    sm.start(0);
    rig.ev.runAll();
    EXPECT_GE(sm.stats().finishedAt, 19u);
}

TEST(SmTest, MemoryInstructionBlocksWarpUntilDataReturns)
{
    SmRig rig;
    rig.mgr.backPage(0, 0x10000);
    Sm sm = rig.makeSm();
    sm.addWarp(std::make_unique<ScriptedStream>(
        std::deque<WarpInstr>{memInstr({0x10000}), computeInstr(1)}));
    sm.start(0);
    rig.ev.runAll();
    // Finish time must include a real memory round trip (translation
    // walk + DRAM), far above the 2 issue cycles.
    EXPECT_GT(sm.stats().finishedAt, 100u);
    EXPECT_EQ(sm.stats().memInstructions, 1u);
}

TEST(SmTest, SimtLockstepWaitsForAllLines)
{
    SmRig rig;
    rig.mgr.backPage(0, 0x10000);
    rig.mgr.backPage(0, 0x20000);
    rig.mgr.backPage(0, 0x30000);

    // Warm one line so the others dominate the stall.
    SmRig single;
    (void)single;

    Sm sm = rig.makeSm();
    sm.addWarp(std::make_unique<ScriptedStream>(std::deque<WarpInstr>{
        memInstr({0x10000, 0x20000, 0x30000})}));
    sm.start(0);
    rig.ev.runAll();
    EXPECT_TRUE(sm.done());
    // Three pages translated -> three walks issued.
    EXPECT_EQ(rig.xlate.stats().walksIssued, 3u);
}

TEST(SmTest, FarFaultResolvesAndRetries)
{
    SmRig rig;
    rig.mgr.reserveRegion(0, 0x100000, 16 * kBasePageSize);
    Sm sm = rig.makeSm();
    sm.addWarp(std::make_unique<ScriptedStream>(
        std::deque<WarpInstr>{memInstr({0x100000})}));
    sm.start(0);
    rig.ev.runAll();
    EXPECT_TRUE(sm.done());
    EXPECT_GE(sm.stats().farFaultStalls, 1u);
    EXPECT_TRUE(rig.pt.isResident(0x100000));
    // The fault costs a PCIe round trip: ~56k cycles.
    EXPECT_GT(sm.stats().finishedAt, 50000u);
}

TEST(SmTest, GtoPrefersLastIssuedWarp)
{
    SmRig rig;
    Sm sm = rig.makeSm();
    // Warp 0: long compute then more work; warp 1: steady stream.
    // Under GTO, once warp 1 issues it keeps issuing while warp 0 waits.
    std::deque<WarpInstr> w0{computeInstr(50), computeInstr(1)};
    std::deque<WarpInstr> w1;
    for (int i = 0; i < 20; ++i)
        w1.push_back(computeInstr(1));
    sm.addWarp(std::make_unique<ScriptedStream>(w0));
    sm.addWarp(std::make_unique<ScriptedStream>(w1));
    sm.start(0);
    rig.ev.runAll();
    EXPECT_EQ(sm.stats().instructions, 22u);
    EXPECT_TRUE(sm.done());
}

TEST(SmTest, StallUntilDelaysIssue)
{
    SmRig rig;
    Sm sm = rig.makeSm();
    sm.addWarp(std::make_unique<ScriptedStream>(
        std::deque<WarpInstr>{computeInstr(1)}));
    sm.stallUntil(500);
    sm.start(0);
    rig.ev.runAll();
    EXPECT_GE(sm.stats().finishedAt, 500u);
}

/** One next() call on a warp's stream: the SM picked @c warp at
 *  @c cycle; @c retired when its stream was exhausted. */
struct IssueRecord
{
    unsigned warp;
    Cycles cycle;
    Cycles latency;
    bool retired;
};

/** Compute-only stream that logs every pick into a shared log. */
class RecordingStream : public WarpStream
{
  public:
    RecordingStream(unsigned warp, std::vector<Cycles> latencies,
                    const EventQueue &events, std::vector<IssueRecord> &log)
        : warp_(warp), latencies_(std::move(latencies)), events_(events),
          log_(log)
    {
    }

    bool
    next(WarpInstr &out) override
    {
        if (pos_ == latencies_.size()) {
            log_.push_back(IssueRecord{warp_, events_.now(), 0, true});
            return false;
        }
        out = computeInstr(latencies_[pos_]);
        log_.push_back(
            IssueRecord{warp_, events_.now(), latencies_[pos_], false});
        ++pos_;
        return true;
    }

    void serialize(ckpt::Archive &) override {}

  private:
    unsigned warp_;
    std::vector<Cycles> latencies_;
    std::size_t pos_ = 0;
    const EventQueue &events_;
    std::vector<IssueRecord> &log_;
};

/**
 * Replays an SM's pick log against a reference GTO. Every pick must be
 * the greedy warp if it is ready, else the ready warp that issued
 * least recently (never-issued warps are age 0; ties go to the lowest
 * index), and it must come at the first cycle some warp is ready and
 * the one-per-cycle issue port is free: no cycle sits idle.
 */
void
expectGtoReplay(const std::vector<IssueRecord> &log, unsigned warps,
                Cycles start)
{
    std::vector<Cycles> ready_at(warps, start);
    std::vector<std::uint64_t> age(warps, 0);
    std::vector<bool> done(warps, false);
    std::uint64_t age_counter = 0;
    int last = -1;
    Cycles port_free = start;
    for (std::size_t n = 0; n < log.size(); ++n) {
        const IssueRecord &rec = log[n];
        Cycles first_ready = std::numeric_limits<Cycles>::max();
        for (unsigned w = 0; w < warps; ++w) {
            if (!done[w])
                first_ready = std::min(first_ready, ready_at[w]);
        }
        ASSERT_NE(first_ready, std::numeric_limits<Cycles>::max())
            << "pick #" << n << " with every warp retired";
        const Cycles now = std::max(port_free, first_ready);
        ASSERT_EQ(rec.cycle, now)
            << "pick #" << n << ": issue port idle or early";
        auto ready = [&](unsigned w) {
            return !done[w] && ready_at[w] <= now;
        };
        int expected = -1;
        if (last >= 0 && ready(static_cast<unsigned>(last))) {
            expected = last;
        } else {
            for (unsigned w = 0; w < warps; ++w) {
                if (ready(w) &&
                    (expected < 0 ||
                     age[w] < age[static_cast<unsigned>(expected)]))
                    expected = static_cast<int>(w);
            }
        }
        ASSERT_EQ(static_cast<int>(rec.warp), expected)
            << "pick #" << n << " at cycle " << now;
        if (rec.retired) {
            done[rec.warp] = true;
            continue;
        }
        age[rec.warp] = ++age_counter;
        last = static_cast<int>(rec.warp);
        port_free = now + 1;
        ready_at[rec.warp] = now + std::max<Cycles>(1, rec.latency);
    }
    for (unsigned w = 0; w < warps; ++w)
        EXPECT_TRUE(done[w]) << "warp " << w << " never retired";
}

TEST(SmTest, GtoPicksMatchReferenceAcrossMaskWords)
{
    for (const unsigned warps : {1u, 63u, 64u, 65u, 130u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::to_string(warps) + " warps, seed " +
                         std::to_string(seed));
            SmRig rig;
            SmConfig cfg;
            cfg.warpsPerSm = warps;
            Sm sm = rig.makeSm(cfg);
            std::vector<IssueRecord> log;
            Rng rng(seed * 1000 + warps);
            std::uint64_t instructions = 0;
            for (unsigned w = 0; w < warps; ++w) {
                // Mostly short latencies, so warps contend for the port;
                // some long ones, so at times nobody is ready and the
                // SM must wake at the earliest readyAt.
                std::vector<Cycles> latencies(rng.between(0, 12));
                for (Cycles &lat : latencies)
                    lat = rng.chance(0.2) ? rng.between(20, 400)
                                          : rng.below(6);
                instructions += latencies.size();
                sm.addWarp(std::make_unique<RecordingStream>(
                    w, std::move(latencies), rig.ev, log));
            }
            const Cycles start = 7;
            sm.start(start);
            rig.ev.runAll();
            ASSERT_TRUE(sm.done());
            EXPECT_EQ(sm.stats().instructions, instructions);
            EXPECT_EQ(log.size(), instructions + warps);
            expectGtoReplay(log, warps, start);
        }
    }
}

TEST(GpuTest, PartitionSmsEvenlyWithRemainder)
{
    EXPECT_EQ(Gpu::partitionSms(30, 1), (std::vector<unsigned>{30}));
    EXPECT_EQ(Gpu::partitionSms(30, 4),
              (std::vector<unsigned>{8, 8, 7, 7}));
    EXPECT_EQ(Gpu::partitionSms(30, 5),
              (std::vector<unsigned>{6, 6, 6, 6, 6}));
}

TEST(GpuTest, StallAllReachesEverySm)
{
    SmRig rig;
    GpuConfig cfg;
    cfg.numSms = 2;
    Gpu gpu(rig.ev, cfg);
    int finished = 0;
    for (int i = 0; i < 2; ++i) {
        const SmId id = gpu.createSm(rig.pt, rig.xlate, rig.caches,
                                     &rig.pager, [&] { ++finished; });
        gpu.sm(id).addWarp(std::make_unique<ScriptedStream>(
            std::deque<WarpInstr>{computeInstr(1)}));
    }
    gpu.stallAll(1000);
    gpu.startAll(0);
    rig.ev.runAll();
    EXPECT_EQ(finished, 2);
    EXPECT_TRUE(gpu.allDone());
    for (SmId id = 0; id < 2; ++id)
        EXPECT_GE(gpu.sm(id).stats().finishedAt, 1000u);
    EXPECT_EQ(gpu.totalStallCycles(), 1000u);
}

}  // namespace
}  // namespace mosaic
