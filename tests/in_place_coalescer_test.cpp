/** @file Focused tests for the In-Place Coalescer's eligibility rules
 *  and its zero-migration, zero-flush promotion. */

#include <gtest/gtest.h>

#include "dram/dram.h"
#include "engine/event_queue.h"
#include "mm/in_place_coalescer.h"
#include "mm/mosaic_manager.h"
#include "vm/translation.h"
#include "vm/walker.h"

namespace mosaic {
namespace {

constexpr Addr kVa = 1ull << 40;

struct CoalescerRig
{
    RegionPtNodeAllocator alloc{1ull << 33, 64ull << 20};
    MosaicState state{0, 16 * kLargePageSize};
    PageTable pt{0, alloc};
    InPlaceCoalescer coalescer{state};

    CoalescerRig() { state.apps[0].pageTable = &pt; }

    /** Manually builds a chunk-reserved frame with @p pages mapped. */
    std::uint32_t
    buildFrame(unsigned pages, AppId app = 0)
    {
        const std::uint32_t frame = state.freeFrames.back();
        state.freeFrames.pop_back();
        state.pool.frame(frame).owner = app;
        state.frameChunkVa[frame] = kVa;
        for (unsigned s = 0; s < pages; ++s) {
            state.pool.allocateSlot(frame, s, app,
                                    kVa + s * kBasePageSize);
            pt.mapBasePage(kVa + s * kBasePageSize,
                           state.pool.slotAddr(frame, s));
        }
        return frame;
    }
};

TEST(InPlaceCoalescerTest, FullyPopulatedChunkFrameIsEligible)
{
    CoalescerRig rig;
    const auto frame = rig.buildFrame(kBasePagesPerLargePage);
    EXPECT_TRUE(rig.coalescer.eligible(frame));
    EXPECT_TRUE(rig.coalescer.tryCoalesce(frame));
    EXPECT_TRUE(rig.state.pool.frame(frame).coalesced);
    EXPECT_TRUE(rig.pt.isCoalesced(kVa));
    EXPECT_EQ(rig.state.stats.coalesceOps, 1u);
}

TEST(InPlaceCoalescerTest, PartialFrameIsNotEligible)
{
    CoalescerRig rig;
    const auto frame = rig.buildFrame(kBasePagesPerLargePage - 1);
    EXPECT_FALSE(rig.coalescer.eligible(frame));
    EXPECT_FALSE(rig.coalescer.tryCoalesce(frame));
    EXPECT_FALSE(rig.pt.isCoalesced(kVa));
}

TEST(InPlaceCoalescerTest, AlreadyCoalescedFrameIsNotEligible)
{
    CoalescerRig rig;
    const auto frame = rig.buildFrame(kBasePagesPerLargePage);
    ASSERT_TRUE(rig.coalescer.tryCoalesce(frame));
    EXPECT_FALSE(rig.coalescer.eligible(frame));
    EXPECT_FALSE(rig.coalescer.tryCoalesce(frame));
    EXPECT_EQ(rig.state.stats.coalesceOps, 1u);
}

TEST(InPlaceCoalescerTest, LooseFrameWithoutChunkIsNotEligible)
{
    CoalescerRig rig;
    const auto frame = rig.buildFrame(kBasePagesPerLargePage);
    rig.state.frameChunkVa[frame] = kInvalidAddr;  // not chunk-reserved
    EXPECT_FALSE(rig.coalescer.eligible(frame));
}

TEST(InPlaceCoalescerTest, FragmentedFrameIsNotEligible)
{
    CoalescerRig rig;
    const auto frame = rig.buildFrame(0);
    Rng rng(1);
    rig.state.pool.pinFragments(frame, 4, rng);
    EXPECT_FALSE(rig.coalescer.eligible(frame));
}

TEST(InPlaceCoalescerTest, CoalescingNeedsNoTlbFlush)
{
    // The defining property (paper Fig. 6): stale base translations
    // remain usable after coalescing because nothing moved.
    EventQueue ev;
    DramModel dram(ev, DramConfig{});
    CacheHierarchy caches(ev, dram, CacheHierarchyConfig{});
    PageTableWalker walker(ev, caches, WalkerConfig{});
    TranslationService xlate(ev, walker, 1, TranslationConfig{});

    CoalescerRig rig;
    const auto frame = rig.buildFrame(kBasePagesPerLargePage);

    // Warm a base translation before coalescing.
    Translation before;
    xlate.translate(0, rig.pt, kVa, [&](const Translation &t) {
        before = t;
    });
    ev.runAll();
    ASSERT_TRUE(before.valid);
    ASSERT_EQ(xlate.l1Tlb(0).occupancy(0), 1u);

    ASSERT_TRUE(rig.coalescer.tryCoalesce(frame));

    // The stale base entry still resolves to the same physical address;
    // no flush happened.
    EXPECT_EQ(xlate.l1Tlb(0).occupancy(0), 1u);
    Translation after;
    xlate.translate(0, rig.pt, kVa, [&](const Translation &t) {
        after = t;
    });
    ev.runAll();
    ASSERT_TRUE(after.valid);
    EXPECT_EQ(after.physAddr, before.physAddr);
}

TEST(InPlaceCoalescerTest, PteUpdateChargesDramWrites)
{
    EventQueue ev;
    DramModel dram(ev, DramConfig{});

    CoalescerRig rig;
    rig.state.env.dram = &dram;
    const auto frame = rig.buildFrame(kBasePagesPerLargePage);
    const std::uint64_t writes_before = dram.stats().writes;
    ASSERT_TRUE(rig.coalescer.tryCoalesce(frame));
    EXPECT_GT(dram.stats().writes, writes_before);
    ev.runAll();
}

}  // namespace
}  // namespace mosaic
