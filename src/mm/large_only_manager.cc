#include "mm/large_only_manager.h"

#include "vm/translation.h"

namespace mosaic {

LargeOnlyManager::LargeOnlyManager(Addr poolBase, std::uint64_t poolBytes)
    : pool_(poolBase, poolBytes)
{
    freeFrames_.reserve(pool_.numFrames());
    for (std::size_t i = pool_.numFrames(); i-- > 0;)
        freeFrames_.push_back(static_cast<std::uint32_t>(i));
}

void
LargeOnlyManager::registerApp(AppId app, PageTable &pageTable)
{
    apps_[app].pageTable = &pageTable;
}

void
LargeOnlyManager::reserveRegion(AppId app, Addr vaBase, std::uint64_t bytes)
{
    AppState &st = apps_.at(app);
    ++stats_.regionsReserved;
    // Every chunk overlapping the region needs a whole frame, including
    // partially-covered head/tail chunks -- that is the bloat.
    const Addr first = roundDown(vaBase, kLargePageSize);
    const Addr last = roundUp(vaBase + bytes, kLargePageSize);
    for (Addr chunk = first; chunk < last; chunk += kLargePageSize) {
        const std::uint64_t lvpn = largePageNumber(chunk);
        if (st.chunkFrames.count(lvpn) > 0)
            continue;
        if (freeFrames_.empty()) {
            ++stats_.outOfFrames;
            continue;
        }
        const std::uint32_t frame = freeFrames_.back();
        freeFrames_.pop_back();
        pool_.frame(frame).owner = app;
        st.chunkFrames[lvpn] = frame;
        ++framesHeld_;

        // Commit and promote the whole 2MB up front (non-resident); a
        // far-fault later transfers the full large page at once.
        PageTable &pt = *st.pageTable;
        for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot) {
            const Addr slot_va = chunk + slot * kBasePageSize;
            if (pt.isMapped(slot_va))
                continue;
            pool_.allocateSlot(frame, slot, app, slot_va);
            pt.mapBasePage(slot_va, pool_.slotAddr(frame, slot),
                           /*resident=*/false);
            ++stats_.pagesBacked;
        }
        pt.coalesce(chunk);
        pool_.frame(frame).coalesced = true;
        ++stats_.coalesceOps;
    }
    envMutated(env_, "largeonly.reserveRegion");
}

bool
LargeOnlyManager::backPage(AppId app, Addr va)
{
    AppState &st = apps_.at(app);
    PageTable &pt = *st.pageTable;
    if (pt.isResident(va))
        return true;

    const Addr chunk_va = largePageBase(va);
    const auto it = st.chunkFrames.find(largePageNumber(va));
    if (it == st.chunkFrames.end())
        return false;  // region was never reserved (or OOM at reserve)

    // The far-fault delivered the whole 2MB: mark it all resident.
    for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot)
        pt.markResident(chunk_va + slot * kBasePageSize);
    envMutated(env_, "largeonly.backPage");
    return true;
}

void
LargeOnlyManager::releaseRegion(AppId app, Addr vaBase, std::uint64_t bytes)
{
    AppState &st = apps_.at(app);
    PageTable &pt = *st.pageTable;
    const Addr first = roundDown(vaBase, kLargePageSize);
    const Addr last = roundUp(vaBase + bytes, kLargePageSize);
    for (Addr chunk = first; chunk < last; chunk += kLargePageSize) {
        const auto it = st.chunkFrames.find(largePageNumber(chunk));
        if (it == st.chunkFrames.end())
            continue;
        const std::uint32_t frame = it->second;
        FrameInfo &info = pool_.frame(frame);
        if (info.coalesced) {
            pt.splinter(chunk);
            info.coalesced = false;
            ++stats_.splinterOps;
            // Large-entry shootdown, same contract as Cac::splinterFrame.
            if (env_.translation != nullptr)
                env_.translation->shootdown(app, chunk,
                                            pt.sizes().topLevel());
        }
        for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot) {
            const Addr slot_va = chunk + slot * kBasePageSize;
            if (pt.isMapped(slot_va)) {
                pt.unmapBasePage(slot_va);
                // Released VAs can be re-reserved onto another frame; a
                // stale base entry would keep serving the freed slot.
                if (env_.translation != nullptr)
                    env_.translation->shootdown(app, slot_va, 0);
                pool_.freeSlot(frame, slot);
                ++stats_.pagesReleased;
            }
        }
        st.chunkFrames.erase(it);
        pool_.resetOwner(frame);
        freeFrames_.push_back(frame);
        --framesHeld_;
    }
    envMutated(env_, "largeonly.releaseRegion");
}

std::uint64_t
LargeOnlyManager::allocatedBytes() const
{
    return framesHeld_ * kLargePageSize;
}

void
LargeOnlyManager::serialize(ckpt::Archive &ar)
{
    ar.io(pool_);
    ar.io(freeFrames_, 1u << 28, "free frames");
    ar.io(apps_, 1u << 16, "app slots");
    ar.io(framesHeld_);
    ar.io(stats_);
}

}  // namespace mosaic
