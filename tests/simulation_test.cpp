/** @file Tests of the top-level runner: assembly, partitioning, config
 *  presets, prefetch vs demand, churn, and result plumbing. */

#include <gtest/gtest.h>

#include <vector>

#include "runner/report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

Workload
smallWorkload(const std::string &app, unsigned copies)
{
    Workload w = scaledWorkload(homogeneousWorkload(app, copies), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    return w;
}

SimConfig
fast(SimConfig c)
{
    c.gpu.sm.warpsPerSm = 8;
    return c.withIoCompression(16.0);
}

/**
 * The alone-IPC memo is process-wide, so it must key by the whole
 * simulated system: a substrate that differs only in DRAM row timings
 * and L2 latency (knobs the alone run inherits) must not be served the
 * normal substrate's denominators.
 */
TEST(SimulationTest, AloneIpcMemoSeparatesSubstrates)
{
    const Workload w = smallWorkload("HISTO", 2);
    const SimConfig normal = fast(SimConfig::mosaicDefault());
    SimConfig slow = normal;
    slow.dram.rowHitCycles *= 4;
    slow.dram.rowMissCycles *= 4;
    slow.caches.l2LatencyCycles *= 4;

    const std::vector<double> normal_alone = aloneIpcs(w, normal);
    const std::vector<double> slow_alone = aloneIpcs(w, slow);
    ASSERT_EQ(normal_alone.size(), 2u);
    ASSERT_EQ(slow_alone.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_LT(slow_alone[i], normal_alone[i]) << "app " << i;
    // A repeated substrate is still served from the memo, unchanged.
    EXPECT_EQ(aloneIpcs(w, normal), normal_alone);
    EXPECT_EQ(aloneIpcs(w, slow), slow_alone);
}

TEST(SimulationTest, PresetLabelsAndManagers)
{
    EXPECT_EQ(SimConfig::baseline().manager, ManagerKind::GpuMmu);
    EXPECT_EQ(SimConfig::mosaicDefault().manager, ManagerKind::Mosaic);
    EXPECT_EQ(SimConfig::largeOnly().manager, ManagerKind::LargeOnly);
    EXPECT_TRUE(SimConfig::idealTlb().translation.idealTlb);
    EXPECT_FALSE(SimConfig::baseline().withoutPaging().demandPaging);
    EXPECT_TRUE(SimConfig::baseline().withoutPaging(true).chargePrefetchBus);
}

TEST(SimulationTest, IoCompressionScalesBothConstants)
{
    const SimConfig base = SimConfig::baseline();
    const SimConfig fastio = base.withIoCompression(4.0);
    EXPECT_DOUBLE_EQ(fastio.pcie.bytesPerCycle,
                     base.pcie.bytesPerCycle * 4.0);
    EXPECT_EQ(fastio.pcie.fixedOverheadCycles,
              base.pcie.fixedOverheadCycles / 4);
}

TEST(SimulationTest, EveryAppGetsItsOwnSmPartition)
{
    const Workload w = smallWorkload("SCP", 3);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    ASSERT_EQ(r.apps.size(), 3u);
    unsigned total = 0;
    for (const AppResult &app : r.apps) {
        EXPECT_EQ(app.smCount, 10u);
        total += app.smCount;
        EXPECT_GT(app.instructions, 0u);
        EXPECT_GT(app.ipc, 0.0);
    }
    EXPECT_EQ(total, 30u);
}

TEST(SimulationTest, InstructionCountMatchesWarpBudget)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    // 30 SMs x 8 warps x 300 instructions.
    EXPECT_EQ(r.apps[0].instructions, 30u * 8u * 300u);
}

TEST(SimulationTest, PrefetchModeHasNoFarFaults)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimResult r = runSimulation(
        w, fast(SimConfig::baseline().withoutPaging()));
    EXPECT_EQ(r.farFaults, 0u);
    EXPECT_GT(r.apps[0].instructions, 0u);
}

TEST(SimulationTest, DemandModeTransfersTouchedBytes)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    EXPECT_GT(r.farFaults, 0u);
    EXPECT_EQ(r.pagedBytes, r.farFaults * kBasePageSize);
}

TEST(SimulationTest, ChurnProducesAllocationActivity)
{
    const Workload w = smallWorkload("HISTO", 2);
    SimConfig cfg = fast(SimConfig::mosaicDefault());
    cfg.churn.enabled = true;
    cfg.churn.periodCycles = 5000;
    const SimResult churned = runSimulation(w, cfg);
    SimConfig quiet = cfg;
    quiet.churn.enabled = false;
    const SimResult steady = runSimulation(w, quiet);
    EXPECT_GT(churned.mm.pagesReleased, steady.mm.pagesReleased);
    EXPECT_GT(churned.mm.regionsReserved, steady.mm.regionsReserved);
}

TEST(SimulationTest, ResultCarriesSubsystemStats)
{
    const Workload w = smallWorkload("HISTO", 1);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.pageWalks, 0u);
    EXPECT_GT(r.avgWalkLatency, 0.0);
    EXPECT_GT(r.neededBytes, 0u);
    EXPECT_GT(r.allocatedBytes, 0u);
    EXPECT_GT(r.dramRowHits + r.dramRowMisses, 0u);
    EXPECT_GE(r.l1CacheHitRate, 0.0);
    EXPECT_LE(r.l1CacheHitRate, 1.0);
}

TEST(SimulationTest, SeedChangesFaultTiming)
{
    const Workload w = smallWorkload("BFS", 1);
    SimConfig a = fast(SimConfig::baseline());
    SimConfig b = a;
    b.seed = 999;
    const SimResult ra = runSimulation(w, a);
    const SimResult rb = runSimulation(w, b);
    // Different seeds give different access streams; cycle counts differ.
    EXPECT_NE(ra.totalCycles, rb.totalCycles);
}

TEST(SimulationTest, ReportPrintingDoesNotCrash)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimConfig cfg = fast(SimConfig::mosaicDefault());
    const SimResult r = runSimulation(w, cfg);
    std::FILE *sink = std::fopen("/dev/null", "w");
    ASSERT_NE(sink, nullptr);
    printConfigBanner(cfg, sink);
    printSimResult(r, sink);
    std::fclose(sink);
}

TEST(SimulationTest, RoundRobinSchedulerRunsToCompletion)
{
    const Workload w = smallWorkload("SCP", 1);
    SimConfig cfg = fast(SimConfig::baseline());
    cfg.gpu.sm.scheduler = WarpSchedPolicy::RoundRobin;
    const SimResult r = runSimulation(w, cfg);
    EXPECT_EQ(r.apps[0].instructions, 30u * 8u * 300u);
}

TEST(SimulationTest, PageWalkCacheReducesWalkLatency)
{
    const Workload w = smallWorkload("HISTO", 1);
    SimConfig base = fast(SimConfig::baseline());
    SimConfig pwc = base;
    pwc.walker.usePageWalkCache = true;
    const SimResult r_base = runSimulation(w, base);
    const SimResult r_pwc = runSimulation(w, pwc);
    EXPECT_LT(r_pwc.avgWalkLatency, r_base.avgWalkLatency);
}

/**
 * A page-table pool that leaves no 2 MB frame below it is refused up
 * front, on 64 MB of DRAM. maxCycles bounds the run should the check
 * ever stop firing.
 */
SimConfig
poolProbe(std::uint64_t poolBytes)
{
    SimConfig c = SimConfig::mosaicDefault();
    c.dram.capacityBytes = 64ull << 20;
    c.pageTablePoolBytes = poolBytes;
    c.maxCycles = 2'000'000;
    return c;
}

TEST(SimulationDeathTest, PageTablePoolLargerThanDramIsRejected)
{
    // Without the check the frame range underflows.
    const Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.05);
    EXPECT_EXIT(runSimulation(w, poolProbe(128ull << 20)),
                ::testing::ExitedWithCode(1),
                "config pageTablePoolBytes: 134217728 leaves no 2 MB frame "
                "in dram.capacityBytes \\(67108864\\)");
}

TEST(SimulationDeathTest, PageTablePoolFillingDramIsRejected)
{
    // Without the check every far fault retries for want of a frame.
    const Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.05);
    EXPECT_EXIT(runSimulation(w, poolProbe(64ull << 20)),
                ::testing::ExitedWithCode(1),
                "config pageTablePoolBytes: 67108864 leaves no 2 MB frame "
                "in dram.capacityBytes \\(67108864\\)");
}

}  // namespace
}  // namespace mosaic
