/** @file Unit tests for the full translation service (L1 TLB -> L2 TLB
 *  -> walker), fill policies, and shootdowns. */

#include <gtest/gtest.h>

#include "cache/hierarchy.h"
#include "dram/dram.h"
#include "engine/event_queue.h"
#include "vm/translation.h"

namespace mosaic {
namespace {

struct XlateRig
{
    EventQueue ev;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService xlate;
    RegionPtNodeAllocator alloc{1ull << 32, 64ull << 20};
    PageTable pt{0, alloc};

    explicit XlateRig(TranslationConfig cfg = TranslationConfig{})
        : dram(ev, DramConfig{}),
          caches(ev, dram, CacheHierarchyConfig{}),
          walker(ev, caches, WalkerConfig{}),
          xlate(ev, walker, 4, cfg)
    {
    }

    Translation
    timedTranslate(SmId sm, Addr va, Cycles *latency = nullptr)
    {
        Translation out;
        const Cycles start = ev.now();
        bool done = false;
        xlate.translate(sm, pt, va, [&](const Translation &t) {
            out = t;
            done = true;
            if (latency != nullptr)
                *latency = ev.now() - start;
        });
        ev.runAll();
        EXPECT_TRUE(done);
        return out;
    }
};

TEST(TranslationTest, MissWalksThenHitsL1)
{
    XlateRig rig;
    rig.pt.mapBasePage(0x4000, 0x8000);

    Cycles miss_latency = 0;
    const Translation first = rig.timedTranslate(0, 0x4000, &miss_latency);
    ASSERT_TRUE(first.valid);
    EXPECT_EQ(rig.xlate.stats().walksIssued, 1u);
    EXPECT_GT(miss_latency, 100u);  // real walk through DRAM

    Cycles hit_latency = 0;
    rig.timedTranslate(0, 0x4000, &hit_latency);
    EXPECT_EQ(hit_latency, 1u);
    EXPECT_EQ(rig.xlate.stats().l1Hits, 1u);
    EXPECT_EQ(rig.xlate.stats().walksIssued, 1u);  // no second walk
}

TEST(TranslationTest, SecondSmHitsSharedL2Tlb)
{
    XlateRig rig;
    rig.pt.mapBasePage(0x4000, 0x8000);
    rig.timedTranslate(0, 0x4000);
    rig.timedTranslate(1, 0x4000);
    EXPECT_EQ(rig.xlate.stats().l2Hits, 1u);
    EXPECT_EQ(rig.xlate.stats().walksIssued, 1u);
}

TEST(TranslationTest, ConcurrentMissesMergeInMshr)
{
    XlateRig rig;
    rig.pt.mapBasePage(0x4000, 0x8000);
    int done = 0;
    for (int i = 0; i < 6; ++i)
        rig.xlate.translate(0, rig.pt, 0x4000 + 64u * i,
                            [&](const Translation &) { ++done; });
    rig.ev.runAll();
    EXPECT_EQ(done, 6);
    EXPECT_EQ(rig.xlate.stats().walksIssued, 1u);
    EXPECT_EQ(rig.xlate.stats().mshrMerges, 5u);
}

TEST(TranslationTest, UnmappedPageReportsFault)
{
    XlateRig rig;
    const Translation t = rig.timedTranslate(0, 0xBAD000);
    EXPECT_FALSE(t.valid);
    EXPECT_EQ(rig.xlate.stats().faults, 1u);
}

TEST(TranslationTest, CoalescedPageFillsOnlyLargeArrays)
{
    XlateRig rig;
    const Addr va = 4ull << kLargePageBits;
    const Addr pa = 6ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);

    rig.timedTranslate(0, va);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(1), 1u);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(0), 0u);
    EXPECT_EQ(rig.xlate.l2Tlb().occupancy(1), 1u);
    EXPECT_EQ(rig.xlate.l2Tlb().occupancy(0), 0u);

    // Any page of the region now hits via the single large entry.
    Cycles lat = 0;
    rig.timedTranslate(0, va + 100 * kBasePageSize, &lat);
    EXPECT_EQ(lat, 1u);
}

TEST(TranslationTest, UncoalescedPageFillsBaseArrays)
{
    XlateRig rig;
    rig.pt.mapBasePage(0x4000, 0x8000);
    rig.timedTranslate(0, 0x4000);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(0), 1u);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(1), 0u);
}

TEST(TranslationTest, ShootdownLargeRemovesFromAllLevels)
{
    XlateRig rig;
    const Addr va = 4ull << kLargePageBits;
    const Addr pa = 6ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);
    rig.timedTranslate(0, va);
    rig.timedTranslate(1, va);

    rig.xlate.shootdown(0, va, 1);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(1), 0u);
    EXPECT_EQ(rig.xlate.l1Tlb(1).occupancy(1), 0u);
    EXPECT_EQ(rig.xlate.l2Tlb().occupancy(1), 0u);
}

TEST(TranslationTest, ShootdownBaseRemovesEntry)
{
    XlateRig rig;
    rig.pt.mapBasePage(0x4000, 0x8000);
    rig.timedTranslate(0, 0x4000);
    rig.xlate.shootdown(0, 0x4000, 0);
    EXPECT_EQ(rig.xlate.l1Tlb(0).occupancy(0), 0u);
    EXPECT_EQ(rig.xlate.l2Tlb().occupancy(0), 0u);
}

TEST(TranslationTest, IdealTlbAlwaysSingleCycle)
{
    TranslationConfig cfg;
    cfg.idealTlb = true;
    XlateRig rig(cfg);
    rig.pt.mapBasePage(0x4000, 0x8000);
    Cycles lat = 0;
    const Translation t = rig.timedTranslate(0, 0x4000, &lat);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(lat, 1u);
    EXPECT_EQ(rig.xlate.stats().walksIssued, 0u);
}

TEST(TranslationTest, IdealTlbStillFaultsOnUnmapped)
{
    TranslationConfig cfg;
    cfg.idealTlb = true;
    XlateRig rig(cfg);
    const Translation t = rig.timedTranslate(0, 0xBAD000);
    EXPECT_FALSE(t.valid);
    EXPECT_EQ(rig.xlate.stats().faults, 1u);
}

TEST(TranslationTest, PerAppStatsTrackIndependently)
{
    XlateRig rig;
    RegionPtNodeAllocator alloc2(2ull << 32, 64ull << 20);
    PageTable pt2(1, alloc2);
    rig.pt.mapBasePage(0x4000, 0x8000);
    pt2.mapBasePage(0x4000, 0x9000);

    rig.timedTranslate(0, 0x4000);  // app 0: walk
    rig.timedTranslate(0, 0x4000);  // app 0: L1 hit
    Translation t2;
    rig.xlate.translate(1, pt2, 0x4000,
                        [&](const Translation &t) { t2 = t; });
    rig.ev.runAll();
    ASSERT_TRUE(t2.valid);

    const auto a0 = rig.xlate.appStats(0);
    const auto a1 = rig.xlate.appStats(1);
    EXPECT_EQ(a0.requests, 2u);
    EXPECT_EQ(a0.l1Hits, 1u);
    EXPECT_EQ(a0.walks, 1u);
    EXPECT_EQ(a1.requests, 1u);
    EXPECT_EQ(a1.l1Hits, 0u);
    EXPECT_EQ(a1.walks, 1u);
    EXPECT_EQ(rig.xlate.appStats(9).requests, 0u);
}

TEST(TranslationTest, L1StatsTotalSumsAcrossSms)
{
    XlateRig rig;
    rig.pt.mapBasePage(0x4000, 0x8000);
    rig.timedTranslate(0, 0x4000);
    rig.timedTranslate(1, 0x4000);
    rig.timedTranslate(1, 0x4000);
    const Tlb::Stats total = rig.xlate.l1StatsTotal();
    EXPECT_GE(total.accesses(), 3u);
}

/**
 * A TLB geometry its entry arrays cannot hold exactly is refused with a
 * named diagnostic, instead of silently building fewer entries (100 at
 * 16 ways used to build 96) or tripping the cache's geometry assert.
 */
TEST(TranslationDeathTest, TlbEntriesNotAMultipleOfWaysAreRejected)
{
    TranslationConfig cfg;
    cfg.l2.baseEntries = 100;
    cfg.l2.baseWays = 16;
    EXPECT_EXIT({ XlateRig rig(cfg); }, ::testing::ExitedWithCode(1),
                "config translation.l2.baseEntries: 100 is not a multiple "
                "of translation.l2.baseWays \\(16\\)");
}

TEST(TranslationDeathTest, EveryConfiguredTlbArrayIsChecked)
{
    TranslationConfig zero_large;
    zero_large.l1.largeEntries = 0;
    EXPECT_EXIT({ XlateRig rig(zero_large); }, ::testing::ExitedWithCode(1),
                "config translation.l1.largeEntries: 0");

    TranslationConfig bad_mid;
    bad_mid.sizes = PageSizeHierarchy::trident();
    bad_mid.l1.midEntries = 24;
    bad_mid.l1.midWays = 16;
    EXPECT_EXIT({ XlateRig rig(bad_mid); }, ::testing::ExitedWithCode(1),
                "config translation.l1.midEntries: 24 is not a multiple "
                "of translation.l1.midWays");

    TranslationConfig bad_colt;
    bad_colt.colt = true;
    bad_colt.l2.coltEntries = 0;
    EXPECT_EXIT({ XlateRig rig(bad_colt); }, ::testing::ExitedWithCode(1),
                "config translation.l2.coltEntries: 0");
}

TEST(TranslationTest, AbsentTlbArraysAreNotChecked)
{
    // The default pair has no mid array and CoLT is off, so their
    // (unused) geometry knobs cannot refuse the config.
    TranslationConfig cfg;
    cfg.l1.midEntries = 0;
    cfg.l2.coltEntries = 7;
    cfg.l2.coltWays = 2;
    XlateRig rig(cfg);
    rig.pt.mapBasePage(0x4000, 0x8000);
    EXPECT_TRUE(rig.timedTranslate(0, 0x4000).valid);
}

}  // namespace
}  // namespace mosaic
