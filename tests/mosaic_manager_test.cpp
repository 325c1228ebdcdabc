/** @file Unit and property tests for the Mosaic memory manager
 *  (CoCoA + In-Place Coalescer + the release paths into CAC). */

#include <gtest/gtest.h>

#include <set>

#include "mm/mosaic_manager.h"
#include "vm/page_table.h"

namespace mosaic {
namespace {

constexpr Addr kVaA = 1ull << 40;
constexpr Addr kVaB = 2ull << 40;

struct MosaicRig
{
    RegionPtNodeAllocator alloc{1ull << 33, 256ull << 20};
    MosaicManager mgr;
    PageTable ptA{0, alloc};
    PageTable ptB{1, alloc};

    explicit MosaicRig(std::size_t frames = 64, MosaicConfig cfg = {})
        : mgr(0, frames * kLargePageSize, cfg)
    {
        mgr.setEnv(ManagerEnv{});
        mgr.registerApp(0, ptA);
        mgr.registerApp(1, ptB);
    }

    PageTable &pt(AppId app) { return app == 0 ? ptA : ptB; }

    /** Reserves a region and faults every page resident. */
    void
    populate(AppId app, Addr va, std::uint64_t bytes)
    {
        mgr.reserveRegion(app, va, bytes);
        for (Addr p = va; p < va + bytes; p += kBasePageSize)
            EXPECT_TRUE(mgr.backPage(app, p));
    }

    /** Checks the soft guarantee across the whole pool. */
    void
    expectSoftGuarantee()
    {
        for (std::size_t f = 0; f < mgr.state().pool.numFrames(); ++f) {
            const FrameInfo &info = mgr.state().pool.frame(f);
            EXPECT_FALSE(info.mixed)
                << "frame " << f << " violates the soft guarantee";
        }
        EXPECT_EQ(mgr.stats().softGuaranteeViolations, 0u);
    }
};

TEST(MosaicManagerTest, AlignedChunkIsCommittedAndCoalescedAtReserve)
{
    MosaicRig rig;
    rig.mgr.reserveRegion(0, kVaA, kLargePageSize);
    // All 512 pages mapped (non-resident) and promoted, before any fault.
    EXPECT_TRUE(rig.ptA.isCoalesced(kVaA));
    EXPECT_TRUE(rig.ptA.isMapped(kVaA + 37 * kBasePageSize));
    EXPECT_FALSE(rig.ptA.isResident(kVaA + 37 * kBasePageSize));
    EXPECT_EQ(rig.mgr.stats().coalesceOps, 1u);
}

TEST(MosaicManagerTest, ChunkPagesAreContiguousAndAligned)
{
    MosaicRig rig;
    rig.populate(0, kVaA, 3 * kLargePageSize);
    const Addr frame_base = basePageBase(rig.ptA.translate(kVaA).physAddr);
    EXPECT_TRUE(isLargePageAligned(frame_base));
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i) {
        const Translation t =
            rig.ptA.translate(kVaA + i * kBasePageSize);
        ASSERT_TRUE(t.valid);
        EXPECT_EQ(t.physAddr, frame_base + i * kBasePageSize);
        EXPECT_EQ(t.level, 1u);
    }
}

TEST(MosaicManagerTest, FaultMarksResident)
{
    MosaicRig rig;
    rig.mgr.reserveRegion(0, kVaA, kLargePageSize);
    EXPECT_TRUE(rig.mgr.backPage(0, kVaA + 5 * kBasePageSize));
    EXPECT_TRUE(rig.ptA.isResident(kVaA + 5 * kBasePageSize));
    EXPECT_FALSE(rig.ptA.isResident(kVaA + 6 * kBasePageSize));
}

TEST(MosaicManagerTest, UnalignedTailUsesLoosePages)
{
    MosaicRig rig;
    // 1.5 large pages: one aligned chunk + 256 tail pages.
    rig.populate(0, kVaA, kLargePageSize + kLargePageSize / 2);
    EXPECT_TRUE(rig.ptA.isCoalesced(kVaA));
    EXPECT_FALSE(rig.ptA.isCoalesced(kVaA + kLargePageSize));
    // Tail pages are mapped and resident, but as base pages.
    const Translation t =
        rig.ptA.translate(kVaA + kLargePageSize + 3 * kBasePageSize);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.level, 0u);
    rig.expectSoftGuarantee();
}

TEST(MosaicManagerTest, SoftGuaranteeAcrossTwoApps)
{
    MosaicRig rig;
    // Interleave loose allocations from both apps.
    rig.mgr.reserveRegion(0, kVaA, 64 * kBasePageSize);
    rig.mgr.reserveRegion(1, kVaB, 64 * kBasePageSize);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_TRUE(rig.mgr.backPage(0, kVaA + i * kBasePageSize));
        EXPECT_TRUE(rig.mgr.backPage(1, kVaB + i * kBasePageSize));
    }
    rig.expectSoftGuarantee();
}

TEST(MosaicManagerTest, FullReleaseReturnsFramesToFreeList)
{
    MosaicRig rig(/*frames=*/8);
    const std::size_t free_before = rig.mgr.state().freeFrames.size();
    rig.populate(0, kVaA, 4 * kLargePageSize);
    EXPECT_EQ(rig.mgr.state().freeFrames.size(), free_before - 4);
    rig.mgr.releaseRegion(0, kVaA, 4 * kLargePageSize);
    EXPECT_EQ(rig.mgr.state().freeFrames.size(), free_before);
    EXPECT_EQ(rig.mgr.allocatedBytes(), 0u);
    EXPECT_FALSE(rig.ptA.isMapped(kVaA));
    // The region can be re-reserved afterwards.
    rig.populate(0, kVaA, kLargePageSize);
    EXPECT_TRUE(rig.ptA.isCoalesced(kVaA));
}

TEST(MosaicManagerTest, PartialReleaseBelowThresholdSplintersAndCompacts)
{
    MosaicConfig cfg;
    cfg.cac.occupancyThresholdPages = kBasePagesPerLargePage / 2;
    MosaicRig rig(16, cfg);
    rig.populate(0, kVaA, kLargePageSize);
    // Also give the app a partial loose frame so compaction has
    // destinations.
    rig.populate(0, kVaB, 64 * kBasePageSize);

    // Release 75% of the chunk: occupancy falls below the threshold.
    rig.mgr.releaseRegion(0, kVaA, (kLargePageSize * 3) / 4);
    EXPECT_FALSE(rig.ptA.isCoalesced(kVaA));
    EXPECT_EQ(rig.mgr.stats().splinterOps, 1u);
    EXPECT_GE(rig.mgr.stats().migrations, 1u);
    EXPECT_GE(rig.mgr.stats().compactions, 1u);

    // Surviving pages still translate correctly after migration.
    for (Addr va = kVaA + (kLargePageSize * 3) / 4; va < kVaA + kLargePageSize;
         va += kBasePageSize) {
        EXPECT_TRUE(rig.ptA.isMapped(va)) << std::hex << va;
    }
    rig.expectSoftGuarantee();
}

TEST(MosaicManagerTest, PartialReleaseAboveThresholdParksOnEmergencyList)
{
    MosaicConfig cfg;
    cfg.cac.occupancyThresholdPages = kBasePagesPerLargePage / 2;
    MosaicRig rig(16, cfg);
    rig.populate(0, kVaA, kLargePageSize);
    // Release only 10%: frame stays coalesced, goes to emergency list.
    rig.mgr.releaseRegion(0, kVaA, kLargePageSize / 10);
    EXPECT_TRUE(rig.ptA.isCoalesced(kVaA));
    EXPECT_EQ(rig.mgr.state().emergencyFrames.size(), 1u);
    EXPECT_EQ(rig.mgr.stats().splinterOps, 0u);
}

TEST(MosaicManagerTest, EmergencyFailsafeSplintersUnderPressure)
{
    MosaicConfig cfg;
    cfg.cac.occupancyThresholdPages = kBasePagesPerLargePage / 2;
    MosaicRig rig(/*frames=*/2, cfg);
    // Fill both frames with app 0, release a sliver of one so it parks
    // on the emergency list while staying coalesced.
    rig.populate(0, kVaA, 2 * kLargePageSize);
    rig.mgr.releaseRegion(0, kVaA, kLargePageSize / 16);

    // App 1 now needs memory; the only capacity is the emergency frame.
    rig.mgr.reserveRegion(1, kVaB, 8 * kBasePageSize);
    EXPECT_TRUE(rig.mgr.backPage(1, kVaB));
    EXPECT_EQ(rig.mgr.stats().emergencySplinters, 1u);
    EXPECT_FALSE(rig.ptA.isCoalesced(kVaA));
    // This is the one sanctioned soft-guarantee violation.
    EXPECT_GE(rig.mgr.stats().softGuaranteeViolations, 1u);
}

TEST(MosaicManagerTest, FragmentationInjectionPinsFrames)
{
    MosaicRig rig(32);
    rig.mgr.injectFragmentation(1.0, 0.5, 99);
    EXPECT_TRUE(rig.mgr.state().freeFrames.empty());
    for (std::size_t f = 0; f < rig.mgr.state().pool.numFrames(); ++f) {
        EXPECT_EQ(rig.mgr.state().pool.frame(f).pinnedCount,
                  kBasePagesPerLargePage / 2);
    }
    // Allocation still succeeds through fragmented frames' holes.
    rig.mgr.reserveRegion(0, kVaA, 16 * kBasePageSize);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_TRUE(rig.mgr.backPage(0, kVaA + i * kBasePageSize));
    // Alien pages never coalesce with application pages.
    EXPECT_EQ(rig.mgr.stats().coalesceOps, 0u);
}

TEST(MosaicManagerTest, PartialFragmentationLeavesCleanFrames)
{
    MosaicRig rig(64);
    rig.mgr.injectFragmentation(0.5, 0.25, 7);
    const std::size_t free_after = rig.mgr.state().freeFrames.size();
    EXPECT_GT(free_after, 16u);
    EXPECT_LT(free_after, 48u);
}

TEST(MosaicManagerTest, AllocatedBytesCountsCoalescedFramesWhole)
{
    MosaicRig rig;
    rig.mgr.reserveRegion(0, kVaA, kLargePageSize);
    EXPECT_EQ(rig.mgr.allocatedBytes(), kLargePageSize);
    // A loose page adds one base page.
    rig.mgr.reserveRegion(0, kVaB, kBasePageSize);
    rig.mgr.backPage(0, kVaB);
    EXPECT_EQ(rig.mgr.allocatedBytes(), kLargePageSize + kBasePageSize);
}

TEST(MosaicManagerTest, CoalescingCanBeDisabled)
{
    MosaicConfig cfg;
    cfg.coalescingEnabled = false;
    MosaicRig rig(16, cfg);
    rig.populate(0, kVaA, kLargePageSize);
    EXPECT_FALSE(rig.ptA.isCoalesced(kVaA));
    EXPECT_EQ(rig.mgr.stats().coalesceOps, 0u);
    // Contiguity is still conserved by CoCoA.
    const Addr base = basePageBase(rig.ptA.translate(kVaA).physAddr);
    EXPECT_EQ(rig.ptA.translate(kVaA + kBasePageSize).physAddr,
              base + kBasePageSize);
}

TEST(MosaicManagerTest, DeferredCoalescingWaitsForResidency)
{
    MosaicConfig cfg;
    cfg.coalesceResidentThreshold = 256;  // half the frame
    MosaicRig rig(16, cfg);
    rig.mgr.reserveRegion(0, kVaA, kLargePageSize);
    // Reservation alone must not promote under the deferred policy.
    EXPECT_FALSE(rig.ptA.isCoalesced(kVaA));

    for (unsigned i = 0; i < 255; ++i)
        EXPECT_TRUE(rig.mgr.backPage(0, kVaA + i * kBasePageSize));
    EXPECT_FALSE(rig.ptA.isCoalesced(kVaA));

    EXPECT_TRUE(rig.mgr.backPage(0, kVaA + 255 * kBasePageSize));
    EXPECT_TRUE(rig.ptA.isCoalesced(kVaA));
    EXPECT_EQ(rig.mgr.stats().coalesceOps, 1u);
}

/**
 * Property fuzz: random reserve/fault/release sequences from two apps
 * must preserve the soft guarantee, translation consistency, and frame
 * accounting, for any seed.
 */
class MosaicFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MosaicFuzzTest, InvariantsHoldUnderRandomWorkload)
{
    MosaicRig rig(96);
    Rng rng(GetParam());

    struct Region
    {
        AppId app;
        Addr va;
        std::uint64_t bytes;
    };
    std::vector<Region> live;
    Addr next_va[2] = {kVaA, kVaB};

    for (int step = 0; step < 200; ++step) {
        const auto action = rng.below(10);
        if (action < 4 || live.empty()) {
            // Reserve + fully fault a region of 1..4MB.
            const AppId app = static_cast<AppId>(rng.below(2));
            const std::uint64_t bytes =
                roundUp(rng.between(kBasePageSize, 4 * kLargePageSize),
                        kBasePageSize);
            const Addr va = next_va[app];
            next_va[app] += roundUp(bytes, kLargePageSize) + kLargePageSize;
            rig.mgr.reserveRegion(app, va, bytes);
            for (Addr p = va; p < va + bytes; p += kBasePageSize)
                ASSERT_TRUE(rig.mgr.backPage(app, p));
            live.push_back(Region{app, va, bytes});
        } else if (action < 8) {
            // Release a random live region entirely.
            const std::size_t idx = rng.below(live.size());
            const Region r = live[idx];
            rig.mgr.releaseRegion(r.app, r.va, r.bytes);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        } else {
            // Release a random prefix of a live region.
            const std::size_t idx = rng.below(live.size());
            Region &r = live[idx];
            const std::uint64_t cut = roundUp(
                rng.between(kBasePageSize, r.bytes), kBasePageSize);
            rig.mgr.releaseRegion(r.app, r.va, std::min(cut, r.bytes));
            if (cut >= r.bytes) {
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
            } else {
                r.va += cut;
                r.bytes -= cut;
            }
        }

        // Invariant: every live page translates, is resident, and two
        // distinct VAs never share a physical page.
        std::set<Addr> phys;
        std::uint64_t mapped = 0;
        for (const Region &r : live) {
            for (Addr p = r.va; p < r.va + r.bytes; p += kBasePageSize) {
                const Translation t = rig.pt(r.app).translate(p);
                ASSERT_TRUE(t.valid && t.resident);
                ASSERT_TRUE(phys.insert(basePageBase(t.physAddr)).second);
                ++mapped;
            }
        }
        ASSERT_EQ(rig.mgr.state().pool.allocatedPages(), mapped);
        rig.expectSoftGuarantee();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MosaicFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace mosaic
