/** @file Tests for the shadow-model invariant checker (DESIGN.md §10). */

#include <gtest/gtest.h>

#include "check/invariant_checker.h"
#include "dram/dram.h"
#include "engine/event_queue.h"
#include "mm/mosaic_manager.h"
#include "runner/simulation.h"
#include "vm/translation.h"
#include "vm/walker.h"
#include "workload/apps.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

constexpr Addr kVaA = 1ull << 40;
constexpr Addr kVaB = 2ull << 40;

/** Mosaic rig with the checker fully attached, sweeping every mutation. */
struct CheckedRig
{
    EventQueue ev;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService xlate;
    RegionPtNodeAllocator alloc{1ull << 33, 256ull << 20};
    MosaicManager mgr;
    PageTable pt{0, alloc};
    InvariantChecker checker;

    static InvariantChecker::Config
    collecting()
    {
        InvariantChecker::Config c;
        c.fullSweepEvery = 1;
        c.abortOnViolation = false;
        return c;
    }

    explicit CheckedRig(MosaicConfig cfg = {})
        : dram(ev, DramConfig{}),
          caches(ev, dram, CacheHierarchyConfig{}),
          walker(ev, caches, WalkerConfig{}),
          xlate(ev, walker, 2, TranslationConfig{}),
          mgr(0, 32 * kLargePageSize, cfg),
          checker(collecting())
    {
        ManagerEnv env;
        env.events = &ev;
        env.dram = &dram;
        env.translation = &xlate;
        env.checker = &checker;
        env.stallGpu = [](Cycles) {};
        mgr.setEnv(env);
        checker.attachManager(&mgr);
        checker.attachMosaicState(&mgr.state());
        checker.attachCacConfig(&mgr.cac().config());
        checker.attachTranslation(&xlate);
        checker.attachDram(&dram);
        checker.observePageTable(pt);
        xlate.setChecker(&checker);
        mgr.registerApp(0, pt);
    }

    void
    populate(Addr va, std::uint64_t bytes)
    {
        mgr.reserveRegion(0, va, bytes);
        for (Addr p = va; p < va + bytes; p += kBasePageSize)
            ASSERT_TRUE(mgr.backPage(0, p));
    }

    void
    warmTlb(Addr va)
    {
        bool done = false;
        xlate.translate(0, pt, va, [&](const Translation &) { done = true; });
        ev.runAll();
        ASSERT_TRUE(done);
    }
};

TEST(InvariantCheckerTest, CleanLifecycleHasNoViolations)
{
    CheckedRig rig;
    rig.populate(kVaA, kLargePageSize);
    rig.populate(kVaB, 100 * kBasePageSize);
    rig.warmTlb(kVaA);
    rig.warmTlb(kVaB);
    rig.mgr.releaseRegion(0, kVaA, kLargePageSize);
    rig.mgr.releaseRegion(0, kVaB, 100 * kBasePageSize);
    rig.checker.verifyAll();
    EXPECT_GT(rig.checker.sweeps(), 0u);
    EXPECT_EQ(rig.checker.violationCount(), 0u)
        << (rig.checker.reports().empty() ? ""
                                          : rig.checker.reports().front());
}

TEST(InvariantCheckerTest, EmergencyParkedFragmentedFrameIsLegal)
{
    CheckedRig rig;
    rig.populate(kVaA, kLargePageSize);
    // Release half the chunk: 256 surviving pages sit exactly at the
    // occupancy threshold, so CAC parks the frame coalesced-with-holes
    // on the emergency list instead of splintering (paper §4.4).
    rig.mgr.releaseRegion(0, kVaA, kLargePageSize / 2);
    ASSERT_FALSE(rig.mgr.state().emergencyFrames.empty());
    const std::uint32_t frame = rig.mgr.state().emergencyFrames.front();
    EXPECT_TRUE(rig.mgr.state().pool.frame(frame).coalesced);
    EXPECT_EQ(rig.mgr.state().pool.frame(frame).usedCount,
              kBasePagesPerLargePage / 2);
    rig.checker.verifyAll();
    EXPECT_EQ(rig.checker.violationCount(), 0u)
        << (rig.checker.reports().empty() ? ""
                                          : rig.checker.reports().front());
}

TEST(InvariantCheckerTest, DetectsPageTableFramePoolDesync)
{
    CheckedRig rig;
    rig.populate(kVaA, 8 * kBasePageSize);
    rig.checker.verifyAll();
    ASSERT_EQ(rig.checker.violationCount(), 0u);

    // Inject the corruption the checker exists to catch: a mapping
    // installed behind the manager's back, pointing into a slot the
    // FramePool believes is free.
    const Addr bogus = rig.mgr.state().pool.slotAddr(7, 3);
    rig.pt.mapBasePage(kVaB, bogus);
    rig.checker.verifyAll();
    EXPECT_GT(rig.checker.violationCount(), 0u);
    EXPECT_FALSE(rig.checker.reports().empty());
}

TEST(InvariantCheckerTest, DetectsStaleTlbEntryAfterSilentRemap)
{
    CheckedRig rig;
    rig.populate(kVaA, 4 * kBasePageSize);
    rig.warmTlb(kVaA);
    rig.checker.verifyAll();
    ASSERT_EQ(rig.checker.violationCount(), 0u);

    // Remap behind the TLB's back (no shootdown): the cached PA is now
    // wrong and the coherence sweep must say so.
    const Addr newPa = rig.mgr.state().pool.slotAddr(9, 0);
    rig.pt.remapBasePage(kVaA, newPa);
    rig.checker.verifyAll();
    EXPECT_GT(rig.checker.violationCount(), 0u);
}

/**
 * Regression for the release-path TLB staleness bug the fuzzer found:
 * releaseRegion unmapped pages without base-entry shootdown, so a
 * re-reserved VA could hit a stale entry pointing at the recycled slot.
 */
TEST(InvariantCheckerTest, ReleaseShootsDownCachedTranslations)
{
    CheckedRig rig;
    rig.populate(kVaA, 4 * kBasePageSize);
    rig.warmTlb(kVaA);
    const std::uint64_t vpn = basePageNumber(kVaA);
    ASSERT_TRUE(rig.xlate.l2Tlb().contains(0, 0, vpn));

    rig.mgr.releaseRegion(0, kVaA, 4 * kBasePageSize);
    EXPECT_FALSE(rig.xlate.l2Tlb().contains(0, 0, vpn));
    for (SmId sm = 0; sm < 2; ++sm)
        EXPECT_FALSE(rig.xlate.l1Tlb(sm).contains(0, 0, vpn));

    // Re-reserve and re-back: with the fuzz schedules' interleaving the
    // VA lands on a different slot; no stale translation may survive.
    rig.populate(kVaB, 64 * kBasePageSize);
    rig.populate(kVaA, 4 * kBasePageSize);
    rig.warmTlb(kVaA);
    rig.checker.verifyAll();
    EXPECT_EQ(rig.checker.violationCount(), 0u)
        << (rig.checker.reports().empty() ? ""
                                          : rig.checker.reports().front());
}

/** Small, fast workload profile (mirrors integration_test.cpp). */
Workload
tinyWorkload(const std::string &app, unsigned copies)
{
    Workload w = scaledWorkload(homogeneousWorkload(app, copies), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 400;
    return w;
}

SimConfig
fast(SimConfig c)
{
    c.gpu.sm.warpsPerSm = 16;
    return c.withIoCompression(16.0);
}

/**
 * The SimConfig::withInvariantChecks contract: checking is strictly
 * observation-only, so the full metrics snapshot -- every counter the
 * simulation produced -- must be byte-identical with checks on or off.
 */
TEST(InvariantCheckerTest, SimResultIsByteIdenticalWithChecksOn)
{
    const Workload w = tinyWorkload("NW", 2);
    const SimConfig base = fast(SimConfig::mosaicDefault());
    const SimResult off = runSimulation(w, base);
    const SimResult on = runSimulation(w, base.withInvariantChecks(64));

    EXPECT_EQ(off.totalCycles, on.totalCycles);
    EXPECT_EQ(off.pageWalks, on.pageWalks);
    EXPECT_EQ(off.farFaults, on.farFaults);
    EXPECT_EQ(off.pagedBytes, on.pagedBytes);
    EXPECT_EQ(off.gpuStallCycles, on.gpuStallCycles);
    ASSERT_EQ(off.apps.size(), on.apps.size());
    for (std::size_t i = 0; i < off.apps.size(); ++i)
        EXPECT_EQ(off.apps[i].instructions, on.apps[i].instructions);
    EXPECT_EQ(off.metrics.toJson(), on.metrics.toJson());
}

TEST(InvariantCheckerTest, CheckedBaselineAndLargeOnlyRunClean)
{
    const Workload w = tinyWorkload("SCP", 1);
    for (const SimConfig &cfg :
         {fast(SimConfig::baseline()), fast(SimConfig::largeOnly())}) {
        const SimResult r = runSimulation(w, cfg.withInvariantChecks(64));
        EXPECT_GT(r.totalCycles, 0u);
    }
}

}  // namespace
}  // namespace mosaic
