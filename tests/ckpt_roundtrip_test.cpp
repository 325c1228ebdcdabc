/**
 * @file
 * Checkpoint/restore differential round-trip tests (DESIGN.md §14).
 *
 * The contract under test: a run that checkpoints at cycle C and
 * continues in-process, and a fresh process that restores that file and
 * runs to the end, must produce byte-identical final metrics-snapshot
 * JSON. The matrix covers every manager kind, the serial and sharded
 * engines, and the default pair plus the Trident {4K,64K,2M}+CoLT
 * hierarchy. On top of the differential:
 *
 *  - save -> restore -> save must reproduce the checkpoint file byte
 *    for byte (a trigger at-or-before the resume cycle re-saves
 *    immediately at the restored quiesce point);
 *  - a two-checkpoint history must be container-independent: the second
 *    file is byte-identical whether the run reached it from the start
 *    or from the first checkpoint;
 *  - checkpoint bytes must be worker-count invariant for the sharded
 *    engine (the quiesce point R is a pure function of queue state);
 *  - the image bytes of twelve pinned cells must match the size and
 *    digest records in tests/golden/ckpt_images.txt;
 *  - the invariant checker must find a clean system after restore;
 *  - a checkpoint at cycle 0 of a prefetching (no-demand-paging) run is
 *    a functional fast-forward seed: it captures the fully-prefetched
 *    system before the first compute cycle.
 *
 * Whole simulations, several per test: slow label.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/page_sizes.h"
#include "runner/json_report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

/** Same pinned cell as shard_test.cpp: two-app het mix, full spine. */
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

PageSizeHierarchy
tridentSizes()
{
    PageSizeHierarchy sizes;
    EXPECT_TRUE(PageSizeHierarchy::parse("4K,64K,2M", sizes));
    return sizes;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "mosaic_" + name + ".ckpt";
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string
snapshot(const SimConfig &config)
{
    const SimResult result = runSimulation(pinnedWorkload(), config);
    return metricsToJson(result, managerKindName(config.manager));
}

/**
 * Mid-run trigger cycle for @p base: half the run length of the
 * unperturbed simulation. Memoized per label (shared across engine
 * variants -- their run lengths differ by at most an epoch-window
 * drift, which half a run absorbs) so each cell pays one probe run.
 */
Cycles
midCycle(const SimConfig &base)
{
    static std::map<std::string, Cycles> memo;
    const std::string key = base.label;
    const auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    const SimResult probe = runSimulation(pinnedWorkload(), base);
    EXPECT_GT(probe.totalCycles, 0u);
    const Cycles mid = probe.totalCycles / 2;
    memo[key] = mid;
    return mid;
}

void
expectByteEqual(const std::string &a, const std::string &b,
                const std::string &what)
{
    if (a == b)
        return;
    std::size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at])
        ++at;
    const std::size_t from = at < 80 ? 0 : at - 80;
    FAIL() << what << " diverges at byte " << at << "\n  A: ..."
           << a.substr(from, 160) << "\n  B: ..." << b.substr(from, 160);
}

/**
 * The differential: checkpoint-and-continue vs restore-and-finish must
 * agree byte for byte on the final snapshot.
 */
void
expectRoundTrip(const SimConfig &base, const std::string &name)
{
    const Cycles c = midCycle(base);
    const std::string path = tempPath(name);
    const std::string continued = snapshot(base.withCheckpointAt(c, path));
    const std::string restored = snapshot(base.withRestoreFrom(path));
    expectByteEqual(continued, restored, base.label + " round-trip");
    std::remove(path.c_str());
}

struct Cell
{
    const char *name;
    SimConfig config;
};

std::vector<Cell>
managerCells()
{
    return {
        {"mosaic", pinnedConfig(SimConfig::mosaicDefault())},
        {"gpummu", pinnedConfig(SimConfig::baseline())},
        {"largeonly", pinnedConfig(SimConfig::largeOnly())},
    };
}

TEST(CkptRoundTripTest, SerialDefaultPair)
{
    for (const Cell &cell : managerCells())
        expectRoundTrip(cell.config,
                        std::string("serial_") + cell.name);
}

TEST(CkptRoundTripTest, ShardedDefaultPair)
{
    for (const Cell &cell : managerCells()) {
        for (const unsigned n : {2u, 8u}) {
            expectRoundTrip(cell.config.withEngineShards(n),
                            std::string("sh") + std::to_string(n) + "_" +
                                cell.name);
        }
    }
}

TEST(CkptRoundTripTest, SerialTridentColt)
{
    for (const Cell &cell : managerCells())
        expectRoundTrip(cell.config.withSizeHierarchy(tridentSizes(),
                                                      /*colt=*/true),
                        std::string("serial_tri_") + cell.name);
}

TEST(CkptRoundTripTest, ShardedTridentColt)
{
    for (const Cell &cell : managerCells()) {
        const SimConfig tri =
            cell.config.withSizeHierarchy(tridentSizes(), /*colt=*/true);
        for (const unsigned n : {2u, 8u}) {
            expectRoundTrip(tri.withEngineShards(n),
                            std::string("sh") + std::to_string(n) +
                                "_tri_" + cell.name);
        }
    }
}

/**
 * Image-format golden: the size and FNV-1a digest of the checkpoint
 * image of every manager x {serial, sharded N=2} x {default pair,
 * Trident+CoLT} cell at its mid cycle, one record per line. Any change
 * to what or how the components serialize moves a digest; refactors of
 * the serialization code must leave every record untouched.
 *
 * Regenerating (only for an intentional image-format change):
 *   MOSAIC_UPDATE_GOLDEN=1 ./build/tests/ckpt_roundtrip_test \
 *       --gtest_filter='*ImageDigestsMatchGolden*'
 */
TEST(CkptRoundTripTest, ImageDigestsMatchGolden)
{
    std::string records;
    for (const Cell &cell : managerCells()) {
        for (const bool tri : {false, true}) {
            const SimConfig hier =
                tri ? cell.config.withSizeHierarchy(tridentSizes(),
                                                    /*colt=*/true)
                    : cell.config;
            for (const unsigned n : {0u, 2u}) {
                const SimConfig base =
                    n == 0 ? hier : hier.withEngineShards(n);
                const std::string name =
                    std::string(n == 0 ? "serial" : "sh2") +
                    (tri ? "_tri_" : "_") + cell.name;
                const std::string path = tempPath("golden_" + name);
                snapshot(base.withCheckpointAt(midCycle(base), path));
                const std::string bytes = readBytes(path);
                std::remove(path.c_str());
                char line[128];
                std::snprintf(line, sizeof(line), "%s %zu %016llx\n",
                              name.c_str(), bytes.size(),
                              static_cast<unsigned long long>(
                                  ckpt::fnv1a(bytes)));
                records += line;
            }
        }
    }

    const std::string path =
        std::string(MOSAIC_GOLDEN_DIR) + "/ckpt_images.txt";
    if (std::getenv("MOSAIC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << records;
        std::printf("golden updated: %s\n", path.c_str());
        return;
    }
    const std::string golden = readBytes(path);
    EXPECT_EQ(golden, records)
        << "checkpoint image digests diverged from " << path;
}

/** save -> restore -> save reproduces the file byte for byte. */
TEST(CkptRoundTripTest, SaveRestoreSaveIsByteStable)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c = midCycle(base);
    const std::string first = tempPath("srs_first");
    const std::string second = tempPath("srs_second");
    snapshot(base.withCheckpointAt(c, first));
    // The trigger cycle is at-or-before the restored resume cycle, so
    // the restored run re-saves immediately at its quiesce point.
    snapshot(base.withRestoreFrom(first).withCheckpointAt(c, second));
    expectByteEqual(readBytes(first), readBytes(second),
                    "save->restore->save image");
    std::remove(first.c_str());
    std::remove(second.c_str());
}

/**
 * Two-checkpoint history is container-independent: the second file has
 * the same bytes whether the run reached its trigger from a fresh start
 * or from the first checkpoint.
 */
TEST(CkptRoundTripTest, CheckpointChainIsHistoryIndependent)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c1 = midCycle(base) / 2;
    const Cycles c2 = midCycle(base);
    const std::string f1 = tempPath("chain_f1");
    const std::string f2_direct = tempPath("chain_f2_direct");
    const std::string f2_resumed = tempPath("chain_f2_resumed");
    snapshot(
        base.withCheckpointAt(c1, f1).withCheckpointAt(c2, f2_direct));
    snapshot(base.withRestoreFrom(f1).withCheckpointAt(c2, f2_resumed));
    expectByteEqual(readBytes(f2_direct), readBytes(f2_resumed),
                    "second checkpoint in a chain");
    std::remove(f1.c_str());
    std::remove(f2_direct.c_str());
    std::remove(f2_resumed.c_str());
}

/**
 * Checkpoint bytes are worker-count invariant: the quiesce point and
 * every serialized figure are pure functions of queue state, never of
 * how many threads executed the lanes.
 */
TEST(CkptRoundTripTest, ShardedCheckpointBytesAreWorkerCountInvariant)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c = midCycle(base.withEngineShards(1));
    std::string reference;
    for (const unsigned n : {1u, 2u, 8u}) {
        const std::string path =
            tempPath("ninv_" + std::to_string(n));
        snapshot(base.withEngineShards(n).withCheckpointAt(c, path));
        const std::string bytes = readBytes(path);
        std::remove(path.c_str());
        if (n == 1u) {
            reference = bytes;
            ASSERT_FALSE(reference.empty());
            continue;
        }
        expectByteEqual(reference, bytes,
                        "checkpoint bytes at " + std::to_string(n) +
                            " workers");
    }
}

/**
 * The shadow checker must find a clean system immediately after restore
 * (abort-on-violation is the default, so completing the run proves it),
 * and checking must stay observation-only across a restore.
 */
TEST(CkptRoundTripTest, InvariantsHoldAfterRestore)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c = midCycle(base);
    const std::string path = tempPath("verify");
    const std::string continued = snapshot(base.withCheckpointAt(c, path));
    const std::string restored_checked =
        snapshot(base.withRestoreFrom(path).withInvariantChecks(64));
    expectByteEqual(continued, restored_checked,
                    "restored run with invariant checks");
    std::remove(path.c_str());
}

/**
 * Fast-forward seed: with demand paging off, a checkpoint at cycle 0
 * triggers at the first quiesce point -- after the upfront prefetch
 * transfers drain, before the first compute cycle -- so restoring skips
 * the entire functional warm-up.
 */
TEST(CkptRoundTripTest, PrefetchSeedFastForwards)
{
    const SimConfig base =
        pinnedConfig(SimConfig::mosaicDefault()).withoutPaging();
    const std::string path = tempPath("seed");
    const std::string continued = snapshot(base.withCheckpointAt(0, path));
    const std::string restored = snapshot(base.withRestoreFrom(path));
    expectByteEqual(continued, restored, "prefetch seed round-trip");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mosaic
