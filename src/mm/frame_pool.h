/**
 * @file
 * Physical-memory bookkeeping at large-page-frame granularity.
 *
 * GPU physical memory is divided into 2MB-aligned large page frames, each
 * holding 512 base-page slots. FramePool tracks, per frame: the owning
 * address space (CoCoA's soft guarantee), which slots are allocated, the
 * virtual address backed by each slot (needed by CAC to migrate pages),
 * whether the frame is coalesced, and whether it contains pre-fragmented
 * "alien" data (the Fig. 16 stress test) -- data CAC may migrate but
 * that can never coalesce with application pages.
 */

#ifndef MOSAIC_MM_FRAME_POOL_H
#define MOSAIC_MM_FRAME_POOL_H

#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "ckpt/serde.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"

namespace mosaic {

/** Pseudo address-space owning immovable pre-fragmented data. */
inline constexpr AppId kFragmentOwner = kInvalidAppId - 1;

/** Per-frame metadata. */
struct FrameInfo
{
    /** Soft-guarantee owner; kInvalidAppId when empty, kFragmentOwner or a
     *  real AppId otherwise. A frame that holds pages of several real apps
     *  (baseline allocator, failsafe paths) is marked @c mixed. */
    AppId owner = kInvalidAppId;
    bool mixed = false;
    bool coalesced = false;
    /** Number of allocated application base pages. */
    std::uint16_t usedCount = 0;
    /** Pages whose data is resident (used by deferred coalescing). */
    std::uint16_t residentCount = 0;
    /** Number of pre-fragmented (alien, non-coalescible) base pages. */
    std::uint16_t pinnedCount = 0;
    std::bitset<kBasePagesPerLargePage> used;
    std::bitset<kBasePagesPerLargePage> pinned;
    /** Virtual address backed by each slot (kInvalidAddr when free). */
    std::vector<Addr> slotVa;
    /**
     * Coalesced-run mask per intermediate size level (Trident
     * hierarchies): bit r of midRuns[l-1] is set while the frame's
     * r-th run of level-l pages is promoted in the page table.
     * PageSizeHierarchy::valid() caps runs per frame at 64, so one
     * word per level suffices. Always zero with the default pair.
     */
    std::array<std::uint64_t, 2> midRuns{};

    /** True while any intermediate-level run is promoted. */
    bool hasMidRuns() const { return midRuns[0] != 0 || midRuns[1] != 0; }

    /** Slots not holding app data or pinned fragments. */
    std::uint16_t
    freeSlots() const
    {
        return static_cast<std::uint16_t>(
            kBasePagesPerLargePage - usedCount - pinnedCount);
    }

    /** True when every slot holds an allocated application page. */
    bool fullyPopulated() const { return usedCount == kBasePagesPerLargePage; }

    /** True when no app data and no pinned data occupy the frame. */
    bool empty() const { return usedCount == 0 && pinnedCount == 0; }
};

/** The pool of large page frames covering GPU main memory. */
class FramePool
{
  public:
    /**
     * @param base physical address of the first frame (2MB aligned)
     * @param bytes size of the managed region (multiple of 2MB)
     */
    FramePool(Addr base, std::uint64_t bytes)
        : base_(base), frames_(bytes / kLargePageSize)
    {
        MOSAIC_ASSERT(isLargePageAligned(base), "pool base not aligned");
    }

    /** Number of frames in the pool. */
    std::size_t numFrames() const { return frames_.size(); }

    /** Physical base address of frame @p idx. */
    Addr
    frameBase(std::size_t idx) const
    {
        return base_ + idx * kLargePageSize;
    }

    /** Frame index containing physical address @p pa. */
    std::size_t
    frameIndex(Addr pa) const
    {
        MOSAIC_ASSERT(pa >= base_, "address below pool");
        const std::size_t idx = (pa - base_) / kLargePageSize;
        MOSAIC_ASSERT(idx < frames_.size(), "address beyond pool");
        return idx;
    }

    /** Metadata of frame @p idx. */
    FrameInfo &frame(std::size_t idx) { return frames_[idx]; }

    /** Metadata of frame @p idx (const). */
    const FrameInfo &frame(std::size_t idx) const { return frames_[idx]; }

    /** Marks slot @p slot of frame @p idx as backing @p va. */
    void
    allocateSlot(std::size_t idx, unsigned slot, AppId app, Addr va)
    {
        FrameInfo &f = frames_[idx];
        MOSAIC_ASSERT(!f.used[slot] && !f.pinned[slot],
                      "allocating an occupied slot");
        if (f.owner == kInvalidAppId) {
            f.owner = app;
        } else if (f.owner != app) {
            f.mixed = true;
        }
        f.used[slot] = true;
        ++f.usedCount;
        if (f.slotVa.empty())
            f.slotVa.assign(kBasePagesPerLargePage, kInvalidAddr);
        f.slotVa[slot] = va;
        ++allocatedPages_;
    }

    /**
     * Releases slot @p slot of frame @p idx. Ownership metadata is kept
     * even when the frame empties (splintering still needs the owner);
     * call resetOwner() when the frame is retired to a free list.
     */
    void
    freeSlot(std::size_t idx, unsigned slot)
    {
        FrameInfo &f = frames_[idx];
        MOSAIC_ASSERT(f.used[slot], "freeing a free slot");
        f.used[slot] = false;
        --f.usedCount;
        if (!f.slotVa.empty())
            f.slotVa[slot] = kInvalidAddr;
        --allocatedPages_;
    }

    /** Clears ownership metadata of an empty frame being retired. */
    void
    resetOwner(std::size_t idx)
    {
        FrameInfo &f = frames_[idx];
        MOSAIC_ASSERT(f.usedCount == 0, "resetting owner of a used frame");
        f.owner = f.pinnedCount > 0 ? kFragmentOwner : kInvalidAppId;
        f.mixed = false;
        f.residentCount = 0;
        f.midRuns.fill(0);
    }

    /**
     * Pins @p count randomly-chosen free slots of frame @p idx as
     * pre-fragmented alien data (stress testing). Alien pages may be
     * migrated by CAC but never coalesce.
     */
    void
    pinFragments(std::size_t idx, unsigned count, Rng &rng)
    {
        FrameInfo &f = frames_[idx];
        unsigned pinned = 0;
        while (pinned < count) {
            const auto slot = static_cast<unsigned>(
                rng.below(kBasePagesPerLargePage));
            if (f.used[slot] || f.pinned[slot])
                continue;
            f.pinned[slot] = true;
            ++f.pinnedCount;
            ++pinned;
        }
        if (f.pinnedCount > 0 && f.owner == kInvalidAppId)
            f.owner = kFragmentOwner;
    }

    /**
     * Moves one pre-fragmented (alien) page between frames: CAC may
     * migrate this data to consolidate it, it just can never coalesce.
     */
    void
    moveFragment(std::size_t srcIdx, unsigned srcSlot, std::size_t dstIdx,
                 unsigned dstSlot)
    {
        FrameInfo &src = frames_[srcIdx];
        FrameInfo &dst = frames_[dstIdx];
        MOSAIC_ASSERT(src.pinned[srcSlot], "moving a non-fragment slot");
        MOSAIC_ASSERT(!dst.used[dstSlot] && !dst.pinned[dstSlot],
                      "fragment destination occupied");
        src.pinned[srcSlot] = false;
        --src.pinnedCount;
        dst.pinned[dstSlot] = true;
        ++dst.pinnedCount;
        if (dst.owner == kInvalidAppId)
            dst.owner = kFragmentOwner;
    }

    /** Total allocated application base pages across the pool. */
    std::uint64_t allocatedPages() const { return allocatedPages_; }

    /** Physical address of slot @p slot in frame @p idx. */
    Addr
    slotAddr(std::size_t idx, unsigned slot) const
    {
        return frameBase(idx) + slot * kBasePageSize;
    }

    /** Checkpoint hook (DESIGN.md §14): every frame's full metadata —
     *  slot bitmaps as packed words, slotVa only when materialized. */
    void
    serialize(ckpt::Archive &ar)
    {
        ar.expect(frames_.size(), "frame-pool size");
        for (FrameInfo &f : frames_) {
            ar.io(f.owner);
            ar.flags(f.mixed, f.coalesced);
            ar.io(f.usedCount);
            ar.io(f.residentCount);
            ar.io(f.pinnedCount);
            ar.bits(f.used);
            ar.bits(f.pinned);
            bool has_slot_va = !f.slotVa.empty();
            ar.io(has_slot_va);
            if (ar.loading())
                f.slotVa.resize(has_slot_va ? kBasePagesPerLargePage : 0);
            for (Addr &va : f.slotVa)
                ar.io(va);
            ar.io(f.midRuns[0]);
            ar.io(f.midRuns[1]);
        }
        ar.io(allocatedPages_);
    }

  private:
    Addr base_;
    std::vector<FrameInfo> frames_;
    std::uint64_t allocatedPages_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_MM_FRAME_POOL_H
