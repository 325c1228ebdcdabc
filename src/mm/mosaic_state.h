/**
 * @file
 * Shared state of the Mosaic memory manager's three components.
 *
 * CoCoA (allocation), the In-Place Coalescer (page-size selection), and
 * CAC (compaction) cooperate on one set of structures: the frame pool,
 * the free-frame list, per-application free-base-page lists, the frame ->
 * virtual-chunk assignment, and the emergency frame list (paper §4).
 */

#ifndef MOSAIC_MM_MOSAIC_STATE_H
#define MOSAIC_MM_MOSAIC_STATE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mm/frame_pool.h"
#include "mm/memory_manager.h"
#include "vm/page_table.h"

namespace mosaic {

/** Per-application allocator state. */
struct MosaicAppState
{
    PageTable *pageTable = nullptr;
    /**
     * Free base-page slots in partially-used frames owned by this app
     * (CoCoA's per-application free base page list).
     */
    std::vector<std::pair<std::uint32_t, std::uint16_t>> freeBaseSlots;
    /**
     * Frame assigned to each large-page-aligned virtual chunk
     * (key: virtual large page number).
     */
    std::unordered_map<std::uint64_t, std::uint32_t> chunkFrames;

    /** Checkpoint hook: everything but the page-table wiring. */
    void
    serialize(ckpt::Archive &ar)
    {
        ar.io(freeBaseSlots, 1u << 28, "free base slots");
        ar.io(chunkFrames, 1u << 28, "chunk frames");
    }
};

/** CAC policy knobs. */
struct CacConfig
{
    bool enabled = true;
    /** Splinter+compact when allocated pages drop below this count. */
    unsigned occupancyThresholdPages = kBasePagesPerLargePage / 2;
    /** Use in-DRAM bulk copy (RowClone/LISA) for migrations (CAC-BC). */
    bool useBulkCopy = false;
    /** Zero-cost migration (the Ideal CAC comparison point). */
    bool ideal = false;
};

/** Everything CoCoA, the In-Place Coalescer, and CAC share. */
struct MosaicState
{
    MosaicState(Addr poolBase, std::uint64_t poolBytes)
        : pool(poolBase, poolBytes),
          frameChunkVa(pool.numFrames(), kInvalidAddr)
    {
        freeFrames.reserve(pool.numFrames());
        // Push in reverse so allocation proceeds from low addresses.
        for (std::size_t i = pool.numFrames(); i-- > 0;)
            freeFrames.push_back(static_cast<std::uint32_t>(i));
    }

    FramePool pool;
    /** Virtual chunk base each frame is reserved for (or kInvalidAddr). */
    std::vector<Addr> frameChunkVa;
    /** Frames with no allocated pages and no owner. */
    std::vector<std::uint32_t> freeFrames;
    /** Coalesced-but-fragmented frames kept as a failsafe (§4.4). */
    std::vector<std::uint32_t> emergencyFrames;
    std::unordered_map<AppId, MosaicAppState> apps;
    ManagerEnv env;
    MemoryManagerStats stats;
};

}  // namespace mosaic

#endif  // MOSAIC_MM_MOSAIC_STATE_H
