/** @file Unit tests for the TLB's per-size-level entry arrays. */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/stats_registry.h"
#include "vm/tlb.h"

namespace mosaic {
namespace {

TlbConfig
smallTlb()
{
    TlbConfig c;
    c.baseEntries = 4;
    c.baseWays = 0;  // fully associative
    c.largeEntries = 2;
    c.largeWays = 0;
    return c;
}

TEST(TlbTest, BaseAndLargeAreSeparateArrays)
{
    Tlb tlb(smallTlb());
    tlb.fill(0, 0, 100);
    EXPECT_TRUE(tlb.lookup(0, 0, 100));
    EXPECT_FALSE(tlb.lookup(1, 0, 100));
    tlb.fill(1, 0, 100);
    EXPECT_TRUE(tlb.lookup(1, 0, 100));
}

TEST(TlbTest, EntriesAreTaggedByAddressSpace)
{
    Tlb tlb(smallTlb());
    tlb.fill(0, 1, 7);
    EXPECT_TRUE(tlb.lookup(0, 1, 7));
    EXPECT_FALSE(tlb.lookup(0, 2, 7));
}

TEST(TlbTest, LruEvictionWithinBaseArray)
{
    Tlb tlb(smallTlb());
    for (std::uint64_t v = 0; v < 4; ++v)
        tlb.fill(0, 0, v);
    tlb.lookup(0, 0, 0);  // make vpn 0 MRU; vpn 1 is LRU
    tlb.fill(0, 0, 99);
    EXPECT_TRUE(tlb.lookup(0, 0, 0));
    EXPECT_FALSE(tlb.lookup(0, 0, 1));
}

TEST(TlbTest, FlushLargeRemovesOnlyThatEntry)
{
    Tlb tlb(smallTlb());
    tlb.fill(1, 0, 5);
    tlb.fill(1, 0, 6);
    EXPECT_TRUE(tlb.flush(1, 0, 5));
    EXPECT_FALSE(tlb.lookup(1, 0, 5));
    EXPECT_TRUE(tlb.lookup(1, 0, 6));
    EXPECT_FALSE(tlb.flush(1, 0, 5));  // already gone
}

TEST(TlbTest, FlushBaseRemovesEntry)
{
    Tlb tlb(smallTlb());
    tlb.fill(0, 0, 9);
    EXPECT_TRUE(tlb.flush(0, 0, 9));
    EXPECT_FALSE(tlb.lookup(0, 0, 9));
}

TEST(TlbTest, FlushAppRemovesOnlyThatAppsEntries)
{
    Tlb tlb(smallTlb());
    tlb.fill(0, 1, 10);
    tlb.fill(0, 2, 11);
    tlb.fill(1, 1, 12);
    tlb.flushApp(1);
    EXPECT_FALSE(tlb.lookup(0, 1, 10));
    EXPECT_FALSE(tlb.lookup(1, 1, 12));
    EXPECT_TRUE(tlb.lookup(0, 2, 11));
}

TEST(TlbTest, StatsCountHitsAndAccesses)
{
    Tlb tlb(smallTlb());
    tlb.fill(0, 0, 1);
    tlb.lookup(0, 0, 1);  // hit
    tlb.lookup(0, 0, 2);  // miss
    tlb.lookup(1, 0, 3);  // miss
    EXPECT_EQ(tlb.stats().slotAccesses[0], 2u);
    EXPECT_EQ(tlb.stats().slotHits[0], 1u);
    EXPECT_EQ(tlb.stats().slotAccesses[1], 1u);
    EXPECT_EQ(tlb.stats().slotHits[1], 0u);
    EXPECT_EQ(tlb.stats().accesses(), 3u);
    EXPECT_EQ(tlb.stats().hits(), 1u);
}

TEST(TlbTest, FillIsIdempotent)
{
    Tlb tlb(smallTlb());
    tlb.fill(0, 0, 1);
    tlb.fill(0, 0, 1);  // must not assert or duplicate
    EXPECT_EQ(tlb.occupancy(0), 1u);
}

TEST(TlbTest, SetAssociativeGeometryRespected)
{
    TlbConfig c;
    c.baseEntries = 8;
    c.baseWays = 2;  // 4 sets x 2 ways
    c.largeEntries = 2;
    Tlb tlb(c);
    // vpns 0, 4, 8 all map to set 0; third insert evicts.
    tlb.fill(0, 0, 0);
    tlb.fill(0, 0, 4);
    tlb.fill(0, 0, 8);
    int present = 0;
    present += tlb.lookup(0, 0, 0) ? 1 : 0;
    present += tlb.lookup(0, 0, 4) ? 1 : 0;
    present += tlb.lookup(0, 0, 8) ? 1 : 0;
    EXPECT_EQ(present, 2);
}

TlbConfig
tridentTlb()
{
    TlbConfig c = smallTlb();
    c.numSizeLevels = 3;  // one intermediate array
    c.midEntries = 4;
    c.midWays = 0;
    return c;
}

TlbConfig
coltTlb()
{
    TlbConfig c = smallTlb();
    c.coltEnabled = true;
    c.coltEntries = 4;
    c.coltWays = 0;
    c.coltSpanPagesLog2 = 2;  // 4-page groups
    return c;
}

/** Metric paths @p tlb registers under prefix "t". */
std::set<std::string>
metricKeys(const Tlb &tlb)
{
    StatsRegistry reg;
    tlb.registerMetrics(reg, "t");
    std::set<std::string> keys;
    for (const MetricValue &v : reg.snapshot().values)
        keys.insert(v.path);
    return keys;
}

TEST(TlbTest, DefaultPairHasNoMidOrColtArrays)
{
    Tlb tlb(smallTlb());
    EXPECT_EQ(metricKeys(tlb),
              (std::set<std::string>{"t.base.accesses", "t.base.hits",
                                     "t.large.accesses", "t.large.hits"}));
    EXPECT_FALSE(tlb.hasColt());
    EXPECT_EQ(tlb.coltOccupancy(), 0u);
}

TEST(TlbTest, MidArrayIsSeparateFromBaseAndLarge)
{
    Tlb tlb(tridentTlb());
    tlb.fill(1, 0, 42);
    EXPECT_TRUE(tlb.lookup(1, 0, 42));
    EXPECT_FALSE(tlb.lookup(0, 0, 42));
    EXPECT_FALSE(tlb.lookup(2, 0, 42));
    EXPECT_EQ(tlb.occupancy(1), 1u);
}

TEST(TlbTest, FlushMidRemovesOnlyThatEntry)
{
    Tlb tlb(tridentTlb());
    tlb.fill(1, 0, 5);
    tlb.fill(1, 0, 6);
    EXPECT_TRUE(tlb.flush(1, 0, 5));
    EXPECT_FALSE(tlb.contains(1, 0, 5));
    EXPECT_TRUE(tlb.contains(1, 0, 6));
    EXPECT_FALSE(tlb.flush(1, 0, 5));  // already gone
}

TEST(TlbTest, MidStatsCountPerLevel)
{
    Tlb tlb(tridentTlb());
    tlb.fill(1, 0, 1);
    tlb.lookup(1, 0, 1);  // hit
    tlb.lookup(1, 0, 2);  // miss
    EXPECT_EQ(tlb.stats().slotAccesses[tlb.slotOf(1)], 2u);
    EXPECT_EQ(tlb.stats().slotHits[tlb.slotOf(1)], 1u);
}

TEST(TlbTest, ColtEntryCoversItsWholeGroup)
{
    Tlb tlb(coltTlb());
    ASSERT_TRUE(tlb.hasColt());
    // Filling any page of the 4-page group installs the group entry;
    // every page of the group then hits, the next group misses.
    tlb.fillColt(0, 5);  // group 1 = base vpns 4..7
    EXPECT_TRUE(tlb.lookupColt(0, 4));
    EXPECT_TRUE(tlb.lookupColt(0, 7));
    EXPECT_FALSE(tlb.lookupColt(0, 8));
    EXPECT_EQ(tlb.coltOccupancy(), 1u);
    EXPECT_EQ(tlb.stats().coltFills, 1u);
}

TEST(TlbTest, ColtShootdownIsExactToTheGroup)
{
    Tlb tlb(coltTlb());
    tlb.fillColt(0, 0);   // group 0
    tlb.fillColt(0, 4);   // group 1
    // Invalidating via any page of group 0 removes exactly that entry.
    EXPECT_TRUE(tlb.flushColtGroup(0, 3));
    EXPECT_FALSE(tlb.containsColtGroup(0, 0));
    EXPECT_TRUE(tlb.containsColtGroup(0, 4));
    EXPECT_EQ(tlb.stats().coltShootdowns, 1u);
    EXPECT_FALSE(tlb.flushColtGroup(0, 3));  // already gone
}

TEST(TlbTest, ColtEntriesAreTaggedByAddressSpace)
{
    Tlb tlb(coltTlb());
    tlb.fillColt(1, 8);
    EXPECT_TRUE(tlb.containsColtGroup(1, 8));
    EXPECT_FALSE(tlb.containsColtGroup(2, 8));
}

/**
 * One suite over every hierarchy depth a TLB can serve: {4K}, the
 * default pair, Trident's three sizes, and four sizes (two mid arrays).
 * Each case runs the same per-level contract at every level.
 */
class TlbLevelTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    static TlbConfig
    config()
    {
        TlbConfig c = smallTlb();
        c.numSizeLevels = GetParam();
        c.midEntries = 4;
        return c;
    }
};

TEST_P(TlbLevelTest, SlotsKeepBaseLargeMidOrder)
{
    Tlb tlb(config());
    const unsigned n = GetParam();
    EXPECT_EQ(tlb.slotOf(0), 0u);
    if (n >= 2) {
        EXPECT_EQ(tlb.slotOf(n - 1), 1u);  // the top level is "large"
    }
    for (unsigned level = 1; level + 1 < n; ++level)
        EXPECT_EQ(tlb.slotOf(level), level + 1);
}

TEST_P(TlbLevelTest, EveryLevelIsItsOwnArray)
{
    Tlb tlb(config());
    const unsigned n = GetParam();
    for (unsigned level = 0; level < n; ++level) {
        tlb.fill(level, 1, 40 + level);
        tlb.fill(level, 1, 40 + level);  // idempotent
        EXPECT_EQ(tlb.occupancy(level), 1u) << "level " << level;
        for (unsigned other = 0; other < n; ++other) {
            EXPECT_EQ(tlb.contains(other, 1, 40 + level), other == level)
                << "filled level " << level << ", probed " << other;
        }
        EXPECT_FALSE(tlb.contains(level, 2, 40 + level));  // other app
    }
}

TEST_P(TlbLevelTest, LookupCountsOnlyItsLevel)
{
    Tlb tlb(config());
    const unsigned n = GetParam();
    for (unsigned level = 0; level < n; ++level) {
        tlb.fill(level, 0, 7);
        EXPECT_TRUE(tlb.lookup(level, 0, 7));
        EXPECT_FALSE(tlb.lookup(level, 0, 8));
    }
    for (unsigned level = 0; level < n; ++level) {
        EXPECT_EQ(tlb.stats().slotAccesses[tlb.slotOf(level)], 2u);
        EXPECT_EQ(tlb.stats().slotHits[tlb.slotOf(level)], 1u);
    }
    EXPECT_EQ(tlb.stats().accesses(), 2u * n);
    EXPECT_EQ(tlb.stats().hits(), n);
}

TEST_P(TlbLevelTest, FlushRemovesOnlyThatEntry)
{
    Tlb tlb(config());
    const unsigned n = GetParam();
    for (unsigned level = 0; level < n; ++level) {
        tlb.fill(level, 0, 5);
        tlb.fill(level, 0, 6);
    }
    for (unsigned level = 0; level < n; ++level) {
        EXPECT_TRUE(tlb.flush(level, 0, 5));
        EXPECT_FALSE(tlb.contains(level, 0, 5));
        EXPECT_TRUE(tlb.contains(level, 0, 6));
        EXPECT_FALSE(tlb.flush(level, 0, 5));  // already gone
        for (unsigned above = level + 1; above < n; ++above)
            EXPECT_TRUE(tlb.contains(above, 0, 5));
    }
}

TEST_P(TlbLevelTest, ForEachVisitsOnlyItsLevel)
{
    Tlb tlb(config());
    const unsigned n = GetParam();
    for (unsigned level = 0; level < n; ++level)
        tlb.fill(level, 3, 100 + level);
    for (unsigned level = 0; level < n; ++level) {
        std::set<std::uint64_t> seen;
        tlb.forEach(level, [&](AppId app, std::uint64_t vpn) {
            EXPECT_EQ(app, 3u);
            seen.insert(vpn);
        });
        EXPECT_EQ(seen, std::set<std::uint64_t>{100 + level});
    }
}

TEST_P(TlbLevelTest, MetricKeysFollowTheSlots)
{
    Tlb tlb(config());
    const unsigned n = GetParam();
    tlb.fill(0, 0, 1);
    tlb.lookup(0, 0, 1);
    std::set<std::string> want = {"t.base.accesses", "t.base.hits",
                                  "t.large.accesses", "t.large.hits"};
    if (n >= 3)
        want.insert({"t.mid.accesses", "t.mid.hits"});
    if (n >= 4)
        want.insert({"t.mid2.accesses", "t.mid2.hits"});
    EXPECT_EQ(metricKeys(tlb), want);

    StatsRegistry reg;
    tlb.registerMetrics(reg, "t");
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.u64("t.base.accesses"), 1u);
    if (n == 1) {
        // The one-level TLB keeps an unused large array: its counters
        // register (the metric set is hierarchy-independent) at zero.
        EXPECT_EQ(snap.u64("t.large.accesses"), 0u);
        EXPECT_EQ(snap.u64("t.large.hits"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, TlbLevelTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<unsigned> &info) {
                             return std::to_string(info.param) + "Level";
                         });

/** Property sweep over TLB sizes used in the Fig. 14/15 sensitivity. */
class TlbSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TlbSizeTest, OccupancyBoundedByCapacity)
{
    TlbConfig c;
    c.baseEntries = GetParam();
    c.largeEntries = 4;
    Tlb tlb(c);
    for (std::uint64_t v = 0; v < 4 * GetParam(); ++v)
        tlb.fill(0, 0, v);
    EXPECT_EQ(tlb.occupancy(0), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbSizeTest,
                         ::testing::Values<std::size_t>(8, 16, 32, 64, 128,
                                                        256, 512));

}  // namespace
}  // namespace mosaic
