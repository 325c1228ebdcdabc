/** @file Unit tests for the four-level page table with Mosaic PTE bits. */

#include <gtest/gtest.h>

#include "vm/page_table.h"

namespace mosaic {
namespace {

struct PtRig
{
    RegionPtNodeAllocator alloc{1ull << 32, 64ull << 20};
    PageTable pt{3, alloc};
};

TEST(PageTableTest, UnmappedTranslatesInvalid)
{
    PtRig rig;
    EXPECT_FALSE(rig.pt.translate(0x1000).valid);
    EXPECT_FALSE(rig.pt.isMapped(0x1000));
    EXPECT_FALSE(rig.pt.isResident(0x1000));
}

TEST(PageTableTest, MapTranslateRoundTrip)
{
    PtRig rig;
    rig.pt.mapBasePage(0x40001000, 0x9000);
    const Translation t = rig.pt.translate(0x40001234);
    ASSERT_TRUE(t.valid);
    EXPECT_TRUE(t.resident);
    EXPECT_EQ(t.physAddr, 0x9234u);
    EXPECT_EQ(t.level, 0u);
    EXPECT_EQ(rig.pt.mappedPages(), 1u);
}

TEST(PageTableTest, NonResidentMapping)
{
    PtRig rig;
    rig.pt.mapBasePage(0x1000, 0x2000, /*resident=*/false);
    EXPECT_TRUE(rig.pt.isMapped(0x1000));
    EXPECT_FALSE(rig.pt.isResident(0x1000));
    EXPECT_FALSE(rig.pt.translate(0x1000).resident);
    rig.pt.markResident(0x1000);
    EXPECT_TRUE(rig.pt.translate(0x1000).resident);
}

TEST(PageTableTest, UnmapInvalidatesAndResets)
{
    PtRig rig;
    rig.pt.mapBasePage(0x5000, 0x6000);
    rig.pt.unmapBasePage(0x5000);
    EXPECT_FALSE(rig.pt.isMapped(0x5000));
    EXPECT_EQ(rig.pt.mappedPages(), 0u);
    // Remap after unmap must work.
    rig.pt.mapBasePage(0x5000, 0x7000);
    EXPECT_EQ(rig.pt.translate(0x5000).physAddr, 0x7000u);
}

TEST(PageTableTest, RemapChangesPhysicalAddress)
{
    PtRig rig;
    rig.pt.mapBasePage(0x5000, 0x6000);
    rig.pt.remapBasePage(0x5000, 0xA000);
    EXPECT_EQ(rig.pt.translate(0x5000).physAddr, 0xA000u);
    EXPECT_EQ(rig.pt.mappedPages(), 1u);
}

TEST(PageTableTest, CoalesceRequiresContiguity)
{
    PtRig rig;
    const Addr va = 5ull << kLargePageBits;
    const Addr pa = 7ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);
    EXPECT_TRUE(rig.pt.isCoalesced(va));
    EXPECT_TRUE(rig.pt.isCoalesced(va + kLargePageSize - 1));
    EXPECT_FALSE(rig.pt.isCoalesced(va + kLargePageSize));

    const Translation t = rig.pt.translate(va + 0x3456);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.level, 1u);
    EXPECT_EQ(t.physAddr, pa + 0x3456);
}

TEST(PageTableTest, SplinterRestoresBaseTranslations)
{
    PtRig rig;
    const Addr va = 1ull << kLargePageBits;
    const Addr pa = 3ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    rig.pt.coalesce(va);
    rig.pt.splinter(va);
    EXPECT_FALSE(rig.pt.isCoalesced(va));
    const Translation t = rig.pt.translate(va + kBasePageSize);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.level, 0u);
    EXPECT_EQ(t.physAddr, pa + kBasePageSize);
}

TEST(PageTableDeathTest, CoalesceOfNonContiguousPanics)
{
    PtRig rig;
    const Addr va = 2ull << kLargePageBits;
    const Addr pa = 4ull << kLargePageBits;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i) {
        // Swap pages 1 and 2 to break contiguity (page 0 stays aligned
        // so the specific contiguity assertion fires).
        std::uint64_t j = i == 1 ? 2 : (i == 2 ? 1 : i);
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + j * kBasePageSize);
    }
    EXPECT_DEATH(rig.pt.coalesce(va), "contiguous");
}

TEST(PageTableDeathTest, CoalesceOfPartialRegionPanics)
{
    PtRig rig;
    const Addr va = 2ull << kLargePageBits;
    const Addr pa = 4ull << kLargePageBits;
    // Leave the last page unmapped.
    for (std::uint64_t i = 0; i + 1 < kBasePagesPerLargePage; ++i)
        rig.pt.mapBasePage(va + i * kBasePageSize, pa + i * kBasePageSize);
    EXPECT_DEATH(rig.pt.coalesce(va), "contiguous");
}

TEST(PageTableDeathTest, DoubleMapPanics)
{
    PtRig rig;
    rig.pt.mapBasePage(0x1000, 0x2000);
    EXPECT_DEATH(rig.pt.mapBasePage(0x1000, 0x3000), "double map");
}

TEST(PageTableTest, WalkPathHasFourLevels)
{
    PtRig rig;
    rig.pt.mapBasePage(0x123456789000ull, 0x4000);
    ASSERT_EQ(rig.pt.numWalkLevels(), PageTable::kLevels);
    const auto path = rig.pt.walkPath(0x123456789000ull);
    for (unsigned d = 0; d < rig.pt.numWalkLevels(); ++d)
        EXPECT_NE(path[d], kInvalidAddr);
    EXPECT_EQ(path[0] & ~0xFFFull, rig.pt.rootAddr());
    // All PTE addresses are 8-byte aligned; depths past the walk's last
    // level stay invalid.
    for (unsigned d = 0; d < rig.pt.numWalkLevels(); ++d)
        EXPECT_EQ(path[d] % 8, 0u);
    for (unsigned d = rig.pt.numWalkLevels(); d < PageTable::kMaxLevels; ++d)
        EXPECT_EQ(path[d], kInvalidAddr);
}

TEST(PageTableTest, WalkPathTruncatedForUnmappedRegion)
{
    PtRig rig;
    const auto path = rig.pt.walkPath(0x7FFF00000000ull);
    EXPECT_NE(path[0], kInvalidAddr);  // root always exists
    EXPECT_EQ(path[1], kInvalidAddr);
    EXPECT_EQ(path[2], kInvalidAddr);
    EXPECT_EQ(path[3], kInvalidAddr);
}

TEST(PageTableTest, DistinctRegionsUseDistinctNodes)
{
    PtRig rig;
    rig.pt.mapBasePage(0x1000, 0x2000);
    rig.pt.mapBasePage(1ull << 39, 0x3000);
    const auto a = rig.pt.walkPath(0x1000);
    const auto b = rig.pt.walkPath(1ull << 39);
    EXPECT_NE(a[1] & ~0xFFFull, b[1] & ~0xFFFull);
}

TEST(PageTableTest, NodeAllocatorTracksUsage)
{
    RegionPtNodeAllocator alloc(1ull << 32, 1ull << 20);
    PageTable pt(0, alloc);
    const std::uint64_t after_root = alloc.bytesUsed();
    EXPECT_EQ(after_root, kBasePageSize);
    pt.mapBasePage(0x1000, 0x2000);
    // Mapping one page allocates three more nodes (L2, L3, L4).
    EXPECT_EQ(alloc.bytesUsed(), 4 * kBasePageSize);
}

}  // namespace
}  // namespace mosaic
