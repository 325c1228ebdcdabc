/**
 * @file
 * The Mosaic memory manager: CoCoA + In-Place Coalescer + CAC (paper §4).
 *
 * This class implements CoCoA, the Contiguity-Conserving Allocator:
 *
 *  - reserveRegion() assigns one large page frame to every large-page-
 *    aligned 2MB chunk of an en masse virtual allocation, so base pages
 *    that are virtually contiguous land contiguously (and aligned) in
 *    physical memory.
 *  - backPage() commits base pages on demand. Pages inside a reserved
 *    chunk take their predetermined slot; once the frame fills, the
 *    In-Place Coalescer promotes it to a 2MB translation with no data
 *    movement and no TLB flush. All other pages come from per-
 *    application free base page lists, keeping the soft guarantee that
 *    a frame only holds one application's pages.
 *  - releaseRegion() returns pages; frames left internally fragmented
 *    are handed to CAC, which splinters/compacts or parks them on the
 *    emergency list.
 */

#ifndef MOSAIC_MM_MOSAIC_MANAGER_H
#define MOSAIC_MM_MOSAIC_MANAGER_H

#include "common/page_sizes.h"
#include "mm/cac.h"
#include "mm/in_place_coalescer.h"
#include "mm/memory_manager.h"
#include "mm/mosaic_state.h"

namespace mosaic {

/** Mosaic policy knobs. */
struct MosaicConfig
{
    CacConfig cac;
    /**
     * Page-size hierarchy the manager promotes within (default: the
     * classic 4KB/2MB pair). Must match every registered page table;
     * the top level must be the frame size. With three or more levels
     * the coalescer additionally promotes intermediate-level runs
     * (Trident tiering, DESIGN.md §13) and CAC demotes them before
     * migrating their pages.
     */
    PageSizeHierarchy sizes;
    /** Disable to measure CoCoA without page-size promotion (ablation). */
    bool coalescingEnabled = true;
    /**
     * Coalescing policy (paper §4.3 notes the policy is a software
     * choice): 0 promotes a frame as soon as its chunk is allocated
     * (Mosaic's in-place policy); N > 0 defers promotion until N of the
     * frame's pages are resident, modeling utilization-driven policies
     * like Ingens. Deferral only costs TLB reach in this design -- the
     * promotion itself is free either way.
     */
    unsigned coalesceResidentThreshold = 0;
};

/** Application-transparent multiple-page-size memory manager. */
class MosaicManager : public MemoryManager
{
  public:
    MosaicManager(Addr poolBase, std::uint64_t poolBytes,
                  const MosaicConfig &config = {});

    void setEnv(const ManagerEnv &env) override { state_.env = env; }
    void registerApp(AppId app, PageTable &pageTable) override;
    void reserveRegion(AppId app, Addr vaBase, std::uint64_t bytes) override;
    bool backPage(AppId app, Addr va) override;
    void releaseRegion(AppId app, Addr vaBase, std::uint64_t bytes) override;
    std::uint64_t allocatedBytes() const override;

    /**
     * Bytes locked inside coalesced frames as unallocated holes: pages
     * freed by deallocation that cannot back any other virtual address
     * while the frame stays coalesced (the paper's Table 2 bloat).
     */
    std::uint64_t coalescedHoleBytes() const;
    const MemoryManagerStats &stats() const override { return state_.stats; }
    const FramePool *framePool() const override { return &state_.pool; }

    /** Adds Mosaic-specific gauges on top of the common "mm.*" set. */
    void
    registerMetrics(StatsRegistry &reg) override
    {
        MemoryManager::registerMetrics(reg);
        reg.bindCounterFn("mm.mosaic.coalescedHoleBytes",
                          [this] { return coalescedHoleBytes(); });
        // Tiering counters exist only for multi-level hierarchies so
        // the default pair's metric namespace stays byte-identical.
        if (config_.sizes.numLevels() > 2) {
            reg.bindCounter("mm.mosaic.midCoalesceOps",
                            state_.stats.midCoalesceOps);
            reg.bindCounter("mm.mosaic.midSplinterOps",
                            state_.stats.midSplinterOps);
        }
    }

    /**
     * Pre-fragments physical memory for the Fig. 16 stress tests:
     * @p fragmentationIndex of all frames receive immovable data
     * occupying @p frameOccupancy of their slots.
     */
    void injectFragmentation(double fragmentationIndex,
                             double frameOccupancy, std::uint64_t seed);

    /** Shared component state (tests/inspection). */
    const MosaicState &state() const { return state_; }

    /** The compaction engine (tests/inspection). */
    Cac &cac() { return cac_; }

    /** The page-size selector (tests/inspection). */
    InPlaceCoalescer &coalescer() { return coalescer_; }

    void serialize(ckpt::Archive &ar) override;

  private:
    /** Assigns a free frame to virtual chunk @p chunkVa of @p app. */
    bool assignChunkFrame(AppId app, Addr chunkVa);

    /** Allocates a loose base page (the non-contiguity path). */
    bool backLoosePage(MosaicAppState &app, AppId appId, Addr vaPage);

    /** True when intermediate-level (Trident) tiering is active. */
    bool
    tiered() const
    {
        return config_.coalescingEnabled && config_.sizes.numLevels() > 2;
    }

    MosaicState state_;
    MosaicConfig config_;
    InPlaceCoalescer coalescer_;
    Cac cac_;
};

}  // namespace mosaic

#endif  // MOSAIC_MM_MOSAIC_MANAGER_H
