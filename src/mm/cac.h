/**
 * @file
 * Contiguity-Aware Compaction (CAC), Mosaic's anti-fragmentation
 * mechanism (paper §4.4).
 *
 * When deallocation leaves a coalesced frame internally fragmented below
 * a threshold, CAC splinters it (clearing the large bit and shooting the
 * large TLB entry down) and compacts the surviving base pages into other
 * partially-used frames of the same application, freeing the frame for
 * CoCoA. Frames fragmented above the threshold park on an emergency
 * list; when CoCoA runs out of frames entirely, CAC splinters an
 * emergency frame and hands its holes out as base pages (the failsafe).
 *
 * Costs follow the paper's worst-case model: every migrated page stalls
 * the whole GPU for the copy duration and occupies DRAM channel
 * bandwidth. CAC-BC uses in-DRAM bulk copy (RowClone/LISA) to shrink the
 * copy cost; Ideal CAC migrates for free.
 */

#ifndef MOSAIC_MM_CAC_H
#define MOSAIC_MM_CAC_H

#include "mm/mosaic_state.h"

namespace mosaic {

/** The compaction engine. */
class Cac
{
  public:
    Cac(MosaicState &state, const CacConfig &config)
        : state_(state), config_(config),
          inEmergency_(state.pool.numFrames(), false)
    {
    }

    /**
     * Reacts to deallocation leaving coalesced frame @p frameIdx
     * fragmented: splinters + compacts below the occupancy threshold,
     * otherwise parks the frame on the emergency list.
     */
    void onFrameFragmented(std::uint32_t frameIdx);

    /**
     * Failsafe invoked when CoCoA finds no free frame: first tries to
     * empty a lightly-used frame by compaction; failing that, splinters
     * an emergency frame and donates its holes to @p requester's free
     * base page list.
     * @return true if any capacity was produced.
     */
    bool reclaim(AppId requester);

    /** Splinters a coalesced frame (PTE bits + large-entry shootdown). */
    void splinterFrame(std::uint32_t frameIdx);

    /**
     * Demotes intermediate-level (Trident) runs of frame @p frameIdx:
     * clears their coalesced bits, shoots their TLB entries down, and
     * charges the PTE writes. With @p onlyBroken, runs whose base
     * pages are all still allocated keep their promotion (deallocation
     * left them intact); compaction passes false because every page is
     * about to move. No-op when the frame has no promoted runs -- in
     * particular always, with the default two-size hierarchy.
     */
    void splinterMidRuns(std::uint32_t frameIdx, bool onlyBroken);

    /**
     * Migrates every allocated page out of frame @p frameIdx into other
     * partial frames of the owning application.
     * @return true if the frame was emptied (and pushed to the free list).
     */
    bool compactFrame(std::uint32_t frameIdx);

    /**
     * Consolidates pre-fragmented (alien) data: empties the alien frame
     * with the fewest fragment pages by migrating them into other
     * fragmented frames' holes, freeing a whole frame for CoCoA. Alien
     * data has no page table, so only copy costs apply.
     * @return true if a frame was freed.
     */
    bool consolidateAlienFrame();

    /** Active configuration. */
    const CacConfig &config() const { return config_; }

    /**
     * Copy cost of one page migration under the current config. Routed
     * through DramModel::bulkCopyCycles so the charged stall can never
     * disagree with the path the timing model executes (public so the
     * channel-parity property test can probe it directly).
     */
    Cycles migrationCycles(Addr src, Addr dst) const;

    /** Checkpoint hook (DESIGN.md §14): the emergency-membership bitmap
     *  deliberately keeps stale bits for retired frames (reclaim prunes
     *  them lazily), so it is real state and serializes bit-exactly. */
    void serialize(ckpt::Archive &ar) { ar.bits(inEmergency_); }

  private:
    /** Releases a now-empty frame back to CoCoA's free frame list. */
    void retireEmptyFrame(std::uint32_t frameIdx);

    /** DRAM channel of @p pa (0 without a DRAM model). */
    unsigned channelOf(Addr pa) const;

    MosaicState &state_;
    CacConfig config_;
    std::vector<bool> inEmergency_;
};

}  // namespace mosaic

#endif  // MOSAIC_MM_CAC_H
