#include "mm/gpu_mmu_manager.h"

#include "vm/translation.h"

namespace mosaic {

GpuMmuManager::GpuMmuManager(Addr poolBase, std::uint64_t poolBytes)
    : pool_(poolBase, poolBytes)
{
}

void
GpuMmuManager::registerApp(AppId app, PageTable &pageTable)
{
    apps_[app] = &pageTable;
}

void
GpuMmuManager::reserveRegion(AppId, Addr, std::uint64_t)
{
    // The baseline keeps no per-region policy state: physical pages are
    // handed out purely in demand order.
    ++stats_.regionsReserved;
}

bool
GpuMmuManager::backPage(AppId app, Addr va)
{
    auto it = apps_.find(app);
    MOSAIC_ASSERT(it != apps_.end(), "backPage for unregistered app");
    PageTable &pt = *it->second;
    const Addr va_page = basePageBase(va);
    if (pt.isMapped(va_page)) {
        pt.markResident(va_page);
        return true;  // racing faults may already have backed the page
    }

    std::uint32_t frame;
    std::uint16_t slot;
    if (!recycledSlots_.empty()) {
        std::tie(frame, slot) = recycledSlots_.back();
        recycledSlots_.pop_back();
    } else {
        // Advance the shared cursor; note this interleaves applications
        // within a single large page frame.
        while (cursorFrame_ < pool_.numFrames() &&
               pool_.frame(cursorFrame_).freeSlots() == 0) {
            ++cursorFrame_;
            cursorSlot_ = 0;
        }
        if (cursorFrame_ >= pool_.numFrames()) {
            ++stats_.outOfFrames;
            return false;
        }
        const FrameInfo &info = pool_.frame(cursorFrame_);
        while (info.used[cursorSlot_] || info.pinned[cursorSlot_])
            ++cursorSlot_;
        frame = static_cast<std::uint32_t>(cursorFrame_);
        slot = static_cast<std::uint16_t>(cursorSlot_);
        ++cursorSlot_;
        if (cursorSlot_ >= kBasePagesPerLargePage) {
            ++cursorFrame_;
            cursorSlot_ = 0;
        }
    }

    pool_.allocateSlot(frame, slot, app, va_page);
    pt.mapBasePage(va_page, pool_.slotAddr(frame, slot));
    ++stats_.pagesBacked;
    envMutated(env_, "gpummu.backPage");
    return true;
}

void
GpuMmuManager::releaseRegion(AppId app, Addr vaBase, std::uint64_t bytes)
{
    auto it = apps_.find(app);
    MOSAIC_ASSERT(it != apps_.end(), "releaseRegion for unregistered app");
    PageTable &pt = *it->second;
    for (Addr va = basePageBase(vaBase); va < vaBase + bytes;
         va += kBasePageSize) {
        if (!pt.isMapped(va))
            continue;
        const Addr pa = pt.translate(va).physAddr;
        const std::size_t frame = pool_.frameIndex(pa);
        const auto slot = static_cast<std::uint16_t>(
            basePageIndexInLargePage(pa));
        pt.unmapBasePage(va);
        // Shoot the released translation down so a re-reserved VA cannot
        // hit a stale TLB entry pointing at the recycled slot.
        if (env_.translation != nullptr)
            env_.translation->shootdown(app, va, 0);
        pool_.freeSlot(frame, slot);
        recycledSlots_.emplace_back(static_cast<std::uint32_t>(frame), slot);
        ++stats_.pagesReleased;
    }
    envMutated(env_, "gpummu.releaseRegion");
}

std::uint64_t
GpuMmuManager::allocatedBytes() const
{
    return pool_.allocatedPages() * kBasePageSize;
}

void
GpuMmuManager::serialize(ckpt::Archive &ar)
{
    ar.io(pool_);
    ar.io(recycledSlots_, 1u << 28, "recycled slots");
    ar.io(cursorFrame_);
    ar.io(cursorSlot_);
    ar.io(stats_);
}

}  // namespace mosaic
