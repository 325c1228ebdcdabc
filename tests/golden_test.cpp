/**
 * @file
 * Golden-output regression tests: byte-equality against checked-in
 * metrics snapshots.
 *
 * One small pinned configuration per manager kind (Mosaic, GPU-MMU,
 * 2MB-only) runs to completion; the full metrics-snapshot JSON
 * (runner/json_report.h, deterministic sorted paths) is compared
 * byte-for-byte with a golden file committed under tests/golden/.
 *
 * This locks the simulated *behavior* -- every counter, histogram
 * bucket, and cycle count -- so hot-path refactors (PR 5's pooled
 * continuations, flat radix walks, indexed TLB arrays) are diffed
 * against a recorded truth instead of ad-hoc A/B runs. The goldens in
 * tests/golden/ were generated from the pre-refactor build and must
 * keep passing on every later one.
 *
 * Regenerating (only when an *intentional* behavior change lands):
 *   MOSAIC_UPDATE_GOLDEN=1 ./build/tests/golden_test
 * then commit the rewritten files with an explanation of the diff.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/json_report.h"
#include "runner/simulation.h"
#include "trace/trace_export.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

/** Directory of the golden files, baked in at compile time. */
std::string
goldenDir()
{
    return std::string(MOSAIC_GOLDEN_DIR);
}

/**
 * The pinned scenario: a deterministic two-app heterogeneous mix, small
 * enough to finish in seconds yet exercising the full translation spine
 * (TLB hierarchy, walker, demand paging, coalescing under Mosaic).
 * Frozen: any change here invalidates the goldens.
 */
Workload
pinnedWorkload()
{
    Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    return w;
}

SimConfig
pinnedConfig(SimConfig c)
{
    c.gpu.sm.warpsPerSm = 8;
    return c.withIoCompression(16.0);
}

/**
 * Normalizes the metrics document for stable storage: exact JSON bytes
 * plus a trailing newline (what writeMetricsJson emits). The JSON
 * itself is already deterministic -- sorted metric paths, fixed number
 * formatting -- so no field filtering is needed; totalCycles and every
 * counter ARE the regression surface.
 */
std::string
snapshotDocument(const SimConfig &config)
{
    const SimResult result = runSimulation(pinnedWorkload(), config);
    return metricsToJson(result, managerKindName(config.manager)) + "\n";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string();
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
checkGoldenDocument(const std::string &doc, const std::string &name)
{
    const std::string path = goldenDir() + "/" + name + ".json";

    if (std::getenv("MOSAIC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << doc;
        std::printf("golden updated: %s (%zu bytes)\n", path.c_str(),
                    doc.size());
        return;
    }

    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << path
        << " (generate with MOSAIC_UPDATE_GOLDEN=1)";
    if (doc == golden)
        return;
    // Byte-inequality: locate the first divergence so the failure
    // message points at the drifted metric instead of dumping both
    // multi-KB documents.
    std::size_t at = 0;
    while (at < doc.size() && at < golden.size() && doc[at] == golden[at])
        ++at;
    const std::size_t from = at < 80 ? 0 : at - 80;
    FAIL() << name << " golden document diverged from " << path
           << " at byte " << at << "\n  golden: ..."
           << golden.substr(from, 160) << "\n  actual: ..."
           << doc.substr(from, 160);
}

void
checkGolden(const SimConfig &config, const std::string &name)
{
    checkGoldenDocument(snapshotDocument(config), name);
}

TEST(GoldenTest, MosaicSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::mosaicDefault()), "mosaic");
}

TEST(GoldenTest, GpuMmuSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::baseline()), "gpu_mmu");
}

TEST(GoldenTest, LargeOnlySnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::largeOnly()), "large_only");
}

/**
 * Sharded-engine goldens (DESIGN.md §12). The sharded engine is a
 * distinct timing model -- completion deliveries drift by at most one
 * epoch window relative to the serial engine -- so it gets its own
 * golden per manager. Worker-count independence (N=1 vs N in {2,4,8})
 * is covered by shard_test.cpp; together with these goldens that pins
 * every shard count to the same recorded truth.
 */
TEST(GoldenTest, ShardedMosaicSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::mosaicDefault()).withEngineShards(1),
                "mosaic_sharded");
}

TEST(GoldenTest, ShardedGpuMmuSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::baseline()).withEngineShards(1),
                "gpu_mmu_sharded");
}

TEST(GoldenTest, ShardedLargeOnlySnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::largeOnly()).withEngineShards(1),
                "large_only_sharded");
}

/**
 * Three-size (Trident) goldens: Mosaic running the {4K,64K,2M}
 * hierarchy, without and with CoLT coalesced base-TLB entries, pins
 * the N-level walker/TLB/tiering machinery to a recorded truth the
 * same way the default pair is pinned. Generated with
 * MOSAIC_UPDATE_GOLDEN=1 like every other golden.
 */
TEST(GoldenTest, TridentMosaicSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::mosaicDefault())
                    .withSizeHierarchy(PageSizeHierarchy::trident()),
                "mosaic_trident");
}

TEST(GoldenTest, TridentColtMosaicSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::mosaicDefault())
                    .withSizeHierarchy(PageSizeHierarchy::trident(),
                                       /*colt=*/true),
                "mosaic_trident_colt");
}

/**
 * Four-level golden: Mosaic on {4K,64K,512K,2M} with CoLT, the only
 * pinned cell whose TLBs hold two intermediate-level arrays. It pins
 * the second mid array's probes and its `vm.tlb.l2.mid2.*` counters,
 * which no three-size cell registers.
 */
TEST(GoldenTest, FourLevelColtMosaicSnapshotMatchesGolden)
{
    checkGolden(pinnedConfig(SimConfig::mosaicDefault())
                    .withSizeHierarchy(PageSizeHierarchy{12, 16, 19, 21},
                                       /*colt=*/true),
                "mosaic_4level_colt");
}

/**
 * Serial trace golden (DESIGN.md §9): the exported Chrome Trace JSON of
 * a pinned traced run under the classic serial engine, byte-for-byte.
 * This is the contract the per-lane sharded tracing work rides on: the
 * serial export path must stay byte-identical no matter how the merged
 * multi-lane exporter evolves. The pinned cell is smaller than the
 * metrics cells (8 SMs, 4 warps) so the full event stream fits the ring
 * with zero drops -- a dropped event would make the document depend on
 * ring capacity instead of simulated behavior.
 */
Workload
tracedWorkload()
{
    Workload w = scaledWorkload(heterogeneousWorkload(1, 42), 0.02);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 100;
    return w;
}

SimConfig
tracedConfig()
{
    SimConfig c = SimConfig::mosaicDefault().withIoCompression(16.0);
    c.gpu.numSms = 8;
    c.gpu.sm.warpsPerSm = 4;
    c.churn.enabled = true;
    return c.withTracing();
}

TEST(GoldenTest, SerialTraceMatchesGolden)
{
    const SimResult r = runSimulation(tracedWorkload(), tracedConfig());
    ASSERT_NE(r.trace, nullptr);
    EXPECT_EQ(r.trace->dropped(), 0u)
        << "the pinned trace cell must fit the ring; a lossy golden "
           "would pin ring capacity, not behavior";
    // Matches what writeChromeTraceFile() emits (document + newline).
    checkGoldenDocument(chromeTraceJson(*r.trace, "Mosaic") + "\n",
                        "trace_serial");
}

/**
 * The snapshot itself must be reproducible within one build before
 * byte-comparing across builds means anything.
 */
TEST(GoldenTest, SnapshotIsDeterministicWithinBuild)
{
    const SimConfig c = pinnedConfig(SimConfig::mosaicDefault());
    EXPECT_EQ(snapshotDocument(c), snapshotDocument(c));
}

}  // namespace
}  // namespace mosaic
