/** @file Focused tests for Contiguity-Aware Compaction (CAC). */

#include <gtest/gtest.h>

#include "dram/dram.h"
#include "engine/event_queue.h"
#include "mm/mosaic_manager.h"
#include "vm/translation.h"
#include "vm/walker.h"

namespace mosaic {
namespace {

constexpr Addr kVaA = 1ull << 40;
constexpr Addr kVaB = 2ull << 40;

/** Rig with full timing services attached so CAC costs are observable. */
struct CacRig
{
    EventQueue ev;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService xlate;
    RegionPtNodeAllocator alloc{1ull << 33, 256ull << 20};
    MosaicManager mgr;
    PageTable pt{0, alloc};
    Cycles stalled = 0;

    explicit CacRig(MosaicConfig cfg = {})
        : dram(ev, DramConfig{}),
          caches(ev, dram, CacheHierarchyConfig{}),
          walker(ev, caches, WalkerConfig{}),
          xlate(ev, walker, 2, TranslationConfig{}),
          mgr(0, 32 * kLargePageSize, cfg)
    {
        ManagerEnv env;
        env.events = &ev;
        env.dram = &dram;
        env.translation = &xlate;
        env.stallGpu = [this](Cycles d) { stalled += d; };
        mgr.setEnv(env);
        mgr.registerApp(0, pt);
    }

    void
    populate(Addr va, std::uint64_t bytes)
    {
        mgr.reserveRegion(0, va, bytes);
        for (Addr p = va; p < va + bytes; p += kBasePageSize)
            ASSERT_TRUE(mgr.backPage(0, p));
    }
};

TEST(CacTest, SplinterShootsDownLargeTlbEntry)
{
    CacRig rig;
    rig.populate(kVaA, kLargePageSize);
    // Warm the TLBs with the large-page translation.
    bool done = false;
    rig.xlate.translate(0, rig.pt, kVaA, [&](const Translation &t) {
        EXPECT_EQ(t.level, 1u);
        done = true;
    });
    rig.ev.runAll();
    ASSERT_TRUE(done);
    ASSERT_EQ(rig.xlate.l2Tlb().occupancy(1), 1u);

    // Release 80%: splinter must flush the stale large entries.
    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 4) / 5);
    EXPECT_EQ(rig.xlate.l2Tlb().occupancy(1), 0u);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(1), 0u);
}

TEST(CacTest, CompactionMigratesSurvivorsAndFreesTheFrame)
{
    CacRig rig;
    const std::size_t free_before = rig.mgr.state().freeFrames.size();
    rig.populate(kVaA, kLargePageSize);
    rig.populate(kVaB, 128 * kBasePageSize);  // destination slots

    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
    // 64 surviving pages migrated out; both the chunk frame and nothing
    // else freed: chunk frame back on the free list.
    EXPECT_EQ(rig.mgr.stats().migrations, 64u);
    EXPECT_EQ(rig.mgr.stats().compactions, 1u);
    EXPECT_EQ(rig.mgr.state().freeFrames.size(), free_before - 1);

    // Survivors still translate and stay resident.
    for (Addr va = kVaA + (kLargePageSize * 7) / 8;
         va < kVaA + kLargePageSize; va += kBasePageSize) {
        const Translation t = rig.pt.translate(va);
        ASSERT_TRUE(t.valid && t.resident);
        EXPECT_EQ(t.level, 0u);
    }
}

TEST(CacTest, CompactionChargesAWholeGpuStall)
{
    CacRig rig;
    rig.populate(kVaA, kLargePageSize);
    rig.populate(kVaB, 128 * kBasePageSize);
    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
    EXPECT_GT(rig.stalled, 0u);
    EXPECT_GT(rig.dram.stats().bulkCopies, 0u);
}

TEST(CacTest, IdealCacMigratesForFree)
{
    MosaicConfig cfg;
    cfg.cac.ideal = true;
    CacRig rig(cfg);
    rig.populate(kVaA, kLargePageSize);
    rig.populate(kVaB, 128 * kBasePageSize);
    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
    EXPECT_GE(rig.mgr.stats().migrations, 1u);
    EXPECT_EQ(rig.stalled, 0u);
}

TEST(CacTest, BulkCopyReducesStallVersusBusCopy)
{
    // In-DRAM copy only works within a memory channel, so the app needs
    // loose destination slots on every channel. Fill seven near-full
    // loose frames, then release a slice of each: the freed slots give
    // CAC destinations on all six page channels.
    auto populate_destinations = [](CacRig &rig) {
        for (unsigned i = 0; i < 7; ++i) {
            const Addr va = kVaB + i * (1ull << 30);
            rig.populate(va, 510 * kBasePageSize);
            rig.mgr.releaseRegion(0, va, 128 * kBasePageSize);
        }
    };

    Cycles stall_bus = 0, stall_bc = 0;
    {
        CacRig rig;
        rig.populate(kVaA, kLargePageSize);
        populate_destinations(rig);
        rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
        stall_bus = rig.stalled;
    }
    {
        MosaicConfig cfg;
        cfg.cac.useBulkCopy = true;
        CacRig rig(cfg);
        rig.populate(kVaA, kLargePageSize);
        populate_destinations(rig);
        rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
        stall_bc = rig.stalled;
    }
    EXPECT_GT(stall_bus, 0u);
    EXPECT_LT(stall_bc, stall_bus);
}

TEST(CacTest, DisabledCacParksEverythingOnEmergencyList)
{
    MosaicConfig cfg;
    cfg.cac.enabled = false;
    CacRig rig(cfg);
    rig.populate(kVaA, kLargePageSize);
    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
    // Without CAC the fragmented frame keeps its coalesced mapping.
    EXPECT_TRUE(rig.pt.isCoalesced(kVaA));
    EXPECT_EQ(rig.mgr.stats().compactions, 0u);
    EXPECT_EQ(rig.mgr.state().emergencyFrames.size(), 1u);
}

TEST(CacTest, CompactionSkippedWithoutDestinations)
{
    CacRig rig;
    rig.populate(kVaA, kLargePageSize);
    // No loose frames exist, so survivors cannot move; the frame is
    // splintered but not freed.
    const std::size_t free_before = rig.mgr.state().freeFrames.size();
    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 7) / 8);
    EXPECT_FALSE(rig.pt.isCoalesced(kVaA));
    EXPECT_EQ(rig.mgr.stats().compactions, 0u);
    EXPECT_EQ(rig.mgr.state().freeFrames.size(), free_before);
}

/**
 * Channel-parity property (regression for the CAC<->DRAM channel-mapping
 * disagreement): the stall CAC charges for a migration must equal what
 * the DRAM model's own address decode yields for the same (src, dst)
 * pair -- every frame pair, a spread of slot offsets, every configured
 * channel-interleave mode, with and without bulk copy.
 */
TEST(CacTest, MigrationCostAgreesWithDramForEveryFramePair)
{
    constexpr unsigned kFrames = 32;
    const std::uint64_t via_bus_lines = kBasePageSize / kCacheLineSize;
    for (const ChannelInterleave mode :
         {ChannelInterleave::Line, ChannelInterleave::Page,
          ChannelInterleave::Frame}) {
        for (const bool bulk : {true, false}) {
            EventQueue ev;
            DramConfig dc;
            dc.channelInterleave = mode;
            DramModel dram(ev, dc);
            MosaicConfig cfg;
            cfg.cac.useBulkCopy = bulk;
            MosaicManager mgr(0, kFrames * kLargePageSize, cfg);
            ManagerEnv env;
            env.events = &ev;
            env.dram = &dram;
            mgr.setEnv(env);

            for (unsigned fs = 0; fs < kFrames; ++fs) {
                for (unsigned fd = 0; fd < kFrames; ++fd) {
                    for (const unsigned slot : {0u, 1u, 7u, 255u}) {
                        const Addr src = fs * kLargePageSize +
                                         slot * kBasePageSize;
                        const Addr dst = fd * kLargePageSize +
                                         slot * kBasePageSize;
                        const bool same =
                            dram.channelOf(src) == dram.channelOf(dst);
                        const Cycles want =
                            bulk && same
                                ? dc.bulkCopyInDramCycles
                                : via_bus_lines *
                                      dc.bulkCopyViaBusCyclesPerLine;
                        ASSERT_EQ(mgr.cac().migrationCycles(src, dst), want)
                            << "interleave=" << static_cast<int>(mode)
                            << " bulk=" << bulk << " fs=" << fs
                            << " fd=" << fd << " slot=" << slot;
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace mosaic
