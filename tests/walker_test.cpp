/** @file Unit tests for the highly-threaded page-table walker. */

#include <gtest/gtest.h>

#include "cache/hierarchy.h"
#include "dram/dram.h"
#include "engine/event_queue.h"
#include "vm/page_table.h"
#include "vm/walker.h"

namespace mosaic {
namespace {

struct WalkRig
{
    EventQueue ev;
    DramModel dram;
    CacheHierarchy caches;
    RegionPtNodeAllocator alloc{1ull << 32, 64ull << 20};
    PageTable pt{0, alloc};

    explicit WalkRig()
        : dram(ev, DramConfig{}),
          caches(ev, dram, CacheHierarchyConfig{})
    {
    }

    PageTableWalker
    makeWalker(WalkerConfig cfg = WalkerConfig{})
    {
        return PageTableWalker(ev, caches, cfg);
    }
};

TEST(WalkerTest, WalkResolvesMappedPage)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    rig.pt.mapBasePage(0x4000, 0x8000);
    Translation result;
    bool done = false;
    walker.requestWalk(rig.pt, 0x4000, [&](const Translation &t) {
        result = t;
        done = true;
    });
    rig.ev.runAll();
    ASSERT_TRUE(done);
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.physAddr, 0x8000u);
    EXPECT_EQ(walker.stats().walks, 1u);
    EXPECT_EQ(walker.stats().faults, 0u);
}

TEST(WalkerTest, WalkTakesFourMemoryAccesses)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    rig.pt.mapBasePage(0x4000, 0x8000);
    const std::uint64_t reads_before = rig.dram.stats().reads;
    bool done = false;
    walker.requestWalk(rig.pt, 0x4000, [&](const Translation &) {
        done = true;
    });
    rig.ev.runAll();
    ASSERT_TRUE(done);
    EXPECT_EQ(rig.dram.stats().reads - reads_before, 4u);
}

TEST(WalkerTest, WalkOfUnmappedPageFaults)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    Translation result;
    result.valid = true;
    walker.requestWalk(rig.pt, 0xDEAD000, [&](const Translation &t) {
        result = t;
    });
    rig.ev.runAll();
    EXPECT_FALSE(result.valid);
    EXPECT_EQ(walker.stats().faults, 1u);
}

TEST(WalkerTest, CoalescedRegionYieldsLargeTranslation)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    const Addr va = 9ull << kLargePageBits;
    const Addr pa = 11ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);

    Translation result;
    walker.requestWalk(rig.pt, va + 0x5000, [&](const Translation &t) {
        result = t;
    });
    rig.ev.runAll();
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.level, 1u);
    EXPECT_EQ(walker.stats().largeResults, 1u);
}

TEST(WalkerTest, ConcurrencyCapQueuesExcessWalks)
{
    WalkRig rig;
    WalkerConfig cfg;
    cfg.maxConcurrentWalks = 4;
    auto walker = rig.makeWalker(cfg);
    for (std::uint64_t i = 0; i < 16; ++i)
        rig.pt.mapBasePage(0x100000 + i * kBasePageSize, 0x200000 + i * 4096);

    int completions = 0;
    for (std::uint64_t i = 0; i < 16; ++i) {
        walker.requestWalk(rig.pt, 0x100000 + i * kBasePageSize,
                           [&](const Translation &t) {
            EXPECT_TRUE(t.valid);
            ++completions;
        });
    }
    EXPECT_LE(walker.activeWalks(), 4u);
    EXPECT_EQ(walker.queuedWalks(), 12u);
    EXPECT_EQ(walker.stats().queued, 12u);
    rig.ev.runAll();
    EXPECT_EQ(completions, 16);
    EXPECT_EQ(walker.activeWalks(), 0u);
}

TEST(WalkerTest, PageWalkCacheShortensRepeatWalks)
{
    WalkRig rig;
    WalkerConfig cfg;
    cfg.usePageWalkCache = true;
    auto walker = rig.makeWalker(cfg);
    // Two pages under the same L4 node: upper levels shared.
    rig.pt.mapBasePage(0x10000, 0x20000);
    rig.pt.mapBasePage(0x11000, 0x21000);

    bool first = false;
    walker.requestWalk(rig.pt, 0x10000,
                       [&](const Translation &) { first = true; });
    rig.ev.runAll();
    ASSERT_TRUE(first);
    const std::uint64_t reads_after_first = rig.dram.stats().reads;

    bool second = false;
    walker.requestWalk(rig.pt, 0x11000,
                       [&](const Translation &) { second = true; });
    rig.ev.runAll();
    ASSERT_TRUE(second);
    // Upper three levels hit the PWC; only the leaf PTE goes to memory.
    EXPECT_EQ(rig.dram.stats().reads - reads_after_first, 1u);
    EXPECT_GE(walker.stats().pwcHits, 3u);
}

TEST(WalkerTest, PwcCountsMissesOnColdUpperLevelsAndHitsOnRepeat)
{
    WalkRig rig;
    WalkerConfig cfg;
    cfg.usePageWalkCache = true;
    auto walker = rig.makeWalker(cfg);
    EXPECT_TRUE(walker.hasPageWalkCache());
    // Two base pages under the same leaf node: the three upper-level PTE
    // lines are identical between the two walks.
    rig.pt.mapBasePage(0x10000, 0x20000);
    rig.pt.mapBasePage(0x11000, 0x21000);

    walker.requestWalk(rig.pt, 0x10000, [](const Translation &) {});
    rig.ev.runAll();
    // Cold PWC: the three eligible upper levels all miss; the leaf PTE
    // is never PWC-eligible, so it contributes to neither counter.
    EXPECT_EQ(walker.stats().pwcMisses, 3u);
    EXPECT_EQ(walker.stats().pwcHits, 0u);

    walker.requestWalk(rig.pt, 0x11000, [](const Translation &) {});
    rig.ev.runAll();
    EXPECT_EQ(walker.stats().pwcHits, 3u);
    EXPECT_EQ(walker.stats().pwcMisses, 3u);
}

TEST(WalkerTest, PwcNeverShortCircuitsLeafLevel)
{
    WalkRig rig;
    WalkerConfig cfg;
    cfg.usePageWalkCache = true;
    auto walker = rig.makeWalker(cfg);
    rig.pt.mapBasePage(0x10000, 0x20000);

    walker.requestWalk(rig.pt, 0x10000, [](const Translation &) {});
    rig.ev.runAll();
    const std::uint64_t reads_after_first = rig.dram.stats().reads;

    // Walking the exact same VA again: upper levels short-circuit via
    // the PWC, but the leaf PTE must still be read from memory.
    walker.requestWalk(rig.pt, 0x10000, [](const Translation &) {});
    rig.ev.runAll();
    EXPECT_EQ(rig.dram.stats().reads - reads_after_first, 1u);
    EXPECT_EQ(walker.stats().pwcHits, 3u);
}

TEST(WalkerTest, CoalescedWalkReadsFourLevelsAndSharesUpperPwcLines)
{
    WalkRig rig;
    WalkerConfig cfg;
    cfg.usePageWalkCache = true;
    auto walker = rig.makeWalker(cfg);
    const Addr va = 9ull << kLargePageBits;
    const Addr pa = 11ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);

    // A coalesced walk reads the same four levels as a base walk: three
    // upper PTEs (the L3 one carrying the large bit) plus one L4 PTE
    // for the frame number (paper Fig. 7) -- coalescing changes what
    // the bits mean, not how many accesses the walk makes.
    Translation first;
    walker.requestWalk(rig.pt, va + 17 * kBasePageSize,
                       [&](const Translation &t) { first = t; });
    rig.ev.runAll();
    EXPECT_EQ(rig.dram.stats().reads, 4u);
    ASSERT_TRUE(first.valid);
    EXPECT_EQ(first.level, 1u);

    // Another page of the same region: upper levels (including the L3
    // large-bit PTE) hit the PWC, so only its own L4 PTE is read.
    Translation second;
    walker.requestWalk(rig.pt, va + 200 * kBasePageSize,
                       [&](const Translation &t) { second = t; });
    rig.ev.runAll();
    EXPECT_EQ(rig.dram.stats().reads, 5u);
    EXPECT_EQ(walker.stats().pwcHits, 3u);
    ASSERT_TRUE(second.valid);
    EXPECT_EQ(second.level, 1u);
    EXPECT_EQ(walker.stats().largeResults, 2u);
}

TEST(WalkerTest, SplinterInvalidatesExactlyTheL3PwcLine)
{
    WalkRig rig;
    WalkerConfig cfg;
    cfg.usePageWalkCache = true;
    auto walker = rig.makeWalker(cfg);
    const Addr va = 5ull << kLargePageBits;
    const Addr pa = 7ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);

    walker.requestWalk(rig.pt, va, [](const Translation &) {});
    rig.ev.runAll();
    ASSERT_EQ(walker.stats().pwcMisses, 3u);

    // A splinter rewrites the region's L3 PTE; the stale PWC line must
    // go, or the next walk would short-circuit through old PTE bytes.
    rig.pt.splinter(va);
    walker.invalidatePwcForSplinter(rig.pt, va, rig.pt.sizes().topLevel());

    Translation after;
    walker.requestWalk(rig.pt, va, [&](const Translation &t) { after = t; });
    rig.ev.runAll();
    // Root and L2 lines survive (2 hits); the invalidated L3 line
    // misses and re-reads memory, as does the always-uncached leaf.
    EXPECT_EQ(walker.stats().pwcHits, 2u);
    EXPECT_EQ(walker.stats().pwcMisses, 4u);
    EXPECT_EQ(rig.dram.stats().reads, 6u);
    ASSERT_TRUE(after.valid);
    EXPECT_EQ(after.level, 0u);
}

TEST(WalkerTest, NoPwcByDefault)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    EXPECT_FALSE(walker.hasPageWalkCache());
    rig.pt.mapBasePage(0x4000, 0x8000);
    walker.requestWalk(rig.pt, 0x4000, [](const Translation &) {});
    rig.ev.runAll();
    EXPECT_EQ(walker.stats().pwcHits, 0u);
    EXPECT_EQ(walker.stats().pwcMisses, 0u);
}

TEST(WalkerTest, TridentWalkDescendsFiveDepths)
{
    // {4K,64K,2M}: three radix-9 levels above 2MB plus one depth per
    // extra size boundary = 5 PTE reads per walk instead of 4.
    WalkRig rig;
    auto walker = rig.makeWalker();
    PageTable pt(1, rig.alloc, PageSizeHierarchy::trident());
    pt.mapBasePage(0x4000, 0x8000);
    Translation result;
    walker.requestWalk(pt, 0x4000, [&](const Translation &t) {
        result = t;
    });
    rig.ev.runAll();
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.physAddr, 0x8000u);
    EXPECT_EQ(result.level, 0u);
    EXPECT_EQ(rig.dram.stats().reads, 5u);
}

TEST(WalkerTest, TridentMidCoalescedRunYieldsMidLevelTranslation)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    const PageSizeHierarchy hs = PageSizeHierarchy::trident();
    PageTable pt(1, rig.alloc, hs);
    const Addr va = 3ull << hs.bits(1);
    const Addr pa = 9ull << hs.bits(1);
    for (std::uint64_t i = 0; i < hs.basePagesPer(1); ++i)
        pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    pt.coalesceLevel(va, 1);

    Translation result;
    walker.requestWalk(pt, va + 0x3000, [&](const Translation &t) {
        result = t;
    });
    rig.ev.runAll();
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.level, 1u);
    // Coalescing changes what the bits mean, not how many accesses the
    // walk makes (same contract as the default pair's four reads).
    EXPECT_EQ(rig.dram.stats().reads, 5u);
}

TEST(WalkerTest, SingleLevelHierarchyWalksFourDepths)
{
    // The degenerate base-only hierarchy {4K}: pure radix-9 descent,
    // no coalesced bits anywhere, same four depths as the default pair.
    WalkRig rig;
    auto walker = rig.makeWalker();
    const PageSizeHierarchy one{kBasePageBits};
    ASSERT_TRUE(one.valid());
    PageTable pt(1, rig.alloc, one);
    pt.mapBasePage(0x7000, 0x9000);
    Translation result;
    walker.requestWalk(pt, 0x7000, [&](const Translation &t) {
        result = t;
    });
    rig.ev.runAll();
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.physAddr, 0x9000u);
    EXPECT_EQ(result.level, 0u);
    EXPECT_EQ(rig.dram.stats().reads, 4u);
    EXPECT_EQ(walker.stats().largeResults, 0u);
}

TEST(WalkerTest, LatencyHistogramPopulated)
{
    WalkRig rig;
    auto walker = rig.makeWalker();
    rig.pt.mapBasePage(0x4000, 0x8000);
    walker.requestWalk(rig.pt, 0x4000, [](const Translation &) {});
    rig.ev.runAll();
    EXPECT_EQ(walker.stats().latency.samples(), 1u);
    EXPECT_GT(walker.stats().latency.mean(), 0.0);
}

}  // namespace
}  // namespace mosaic
