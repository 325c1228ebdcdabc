#include "mm/mosaic_manager.h"

#include <algorithm>

#include "mm/mm_trace.h"
#include "vm/translation.h"

namespace mosaic {

MosaicManager::MosaicManager(Addr poolBase, std::uint64_t poolBytes,
                             const MosaicConfig &config)
    : state_(poolBase, poolBytes), config_(config), coalescer_(state_),
      cac_(state_, config.cac)
{
    // CoCoA's frame math is tied to the FramePool's 2MB frames: the
    // hierarchy's top level must be the frame size.
    MOSAIC_ASSERT(config_.sizes.numLevels() >= 2 &&
                      config_.sizes.topBits() == kLargePageBits,
                  "Mosaic needs a frame-sized top level");
}

void
MosaicManager::registerApp(AppId app, PageTable &pageTable)
{
    MOSAIC_ASSERT(pageTable.sizes() == config_.sizes,
                  "page table hierarchy differs from manager config");
    state_.apps[app].pageTable = &pageTable;
}

bool
MosaicManager::assignChunkFrame(AppId app, Addr chunkVa)
{
    MosaicAppState &st = state_.apps.at(app);
    const std::uint64_t lvpn = largePageNumber(chunkVa);
    if (st.chunkFrames.count(lvpn) > 0)
        return true;  // region re-reserved; keep the existing assignment

    if (state_.freeFrames.empty()) {
        ++state_.stats.outOfFrames;
        if (!cac_.reclaim(app) || state_.freeFrames.empty())
            return false;
    }
    const std::uint32_t frame = state_.freeFrames.back();
    state_.freeFrames.pop_back();
    state_.pool.frame(frame).owner = app;
    state_.frameChunkVa[frame] = chunkVa;
    st.chunkFrames[lvpn] = frame;
    mmtrace::frameAlloc(state_, frame, app, "chunk");

    // CoCoA commits the whole frame at allocation time: every base page
    // of the chunk gets its predetermined, contiguity-conserving slot.
    // The mappings are valid but non-resident -- data still crosses the
    // I/O bus lazily, one base page per far-fault -- which is what lets
    // the In-Place Coalescer promote the frame immediately while demand
    // paging keeps transferring at 4KB granularity (paper §4.1).
    PageTable &pt = *st.pageTable;
    for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot) {
        const Addr va_page = chunkVa + slot * kBasePageSize;
        MOSAIC_ASSERT(!pt.isMapped(va_page), "chunk page already mapped");
        state_.pool.allocateSlot(frame, slot, app, va_page);
        pt.mapBasePage(va_page, state_.pool.slotAddr(frame, slot),
                       /*resident=*/false);
        ++state_.stats.pagesBacked;
    }
    if (config_.coalescingEnabled && config_.coalesceResidentThreshold == 0)
        coalescer_.tryCoalesce(frame);
    return true;
}

void
MosaicManager::reserveRegion(AppId app, Addr vaBase, std::uint64_t bytes)
{
    MOSAIC_ASSERT(state_.apps.count(app) > 0, "reserve for unknown app");
    ++state_.stats.regionsReserved;

    // Assign frames to every 2MB-aligned chunk fully inside the region;
    // head/tail pages outside those chunks take the loose path on fault.
    const Addr first_chunk = roundUp(vaBase, kLargePageSize);
    const Addr region_end = vaBase + bytes;
    for (Addr chunk = first_chunk; chunk + kLargePageSize <= region_end;
         chunk += kLargePageSize) {
        assignChunkFrame(app, chunk);
    }
    envMutated(state_.env, "mosaic.reserveRegion");
}

bool
MosaicManager::backPage(AppId app, Addr va)
{
    auto it = state_.apps.find(app);
    MOSAIC_ASSERT(it != state_.apps.end(), "backPage for unknown app");
    MosaicAppState &st = it->second;
    PageTable &pt = *st.pageTable;
    const Addr va_page = basePageBase(va);
    if (pt.isMapped(va_page)) {
        // Chunk pages were committed at reservation time; the fault just
        // delivered their data.
        pt.markResident(va_page);
        if (config_.coalescingEnabled &&
            config_.coalesceResidentThreshold > 0) {
            // Deferred (utilization-driven) policy: promote once enough
            // of the frame's data is actually resident.
            const Addr pa = pt.translate(va_page).physAddr;
            const std::size_t frame = state_.pool.frameIndex(pa);
            FrameInfo &info = state_.pool.frame(frame);
            ++info.residentCount;
            if (!info.coalesced &&
                info.residentCount >= config_.coalesceResidentThreshold)
                coalescer_.tryCoalesce(frame);
            // Trident tiering under the deferred policy: a run whose
            // pages are all resident earns its intermediate size while
            // the frame as a whole still waits for the threshold.
            if (tiered() && !state_.pool.frame(frame).coalesced) {
                coalescer_.tryCoalesceRun(static_cast<std::uint32_t>(frame),
                                          va_page, /*requireResident=*/true);
            }
        }
        envMutated(state_.env, "mosaic.backPage");
        return true;
    }

    // A page of a reserved chunk that was deallocated and is now being
    // re-demanded takes its predetermined contiguity-conserving slot
    // back; once the frame is fully repopulated it can coalesce again.
    const auto chunk_it = st.chunkFrames.find(largePageNumber(va_page));
    if (chunk_it != st.chunkFrames.end()) {
        const std::uint32_t frame = chunk_it->second;
        const auto slot =
            static_cast<unsigned>(basePageIndexInLargePage(va_page));
        FrameInfo &info = state_.pool.frame(frame);
        if (!info.used[slot] && !info.pinned[slot]) {
            state_.pool.allocateSlot(frame, slot, app, va_page);
            pt.mapBasePage(va_page, state_.pool.slotAddr(frame, slot));
            ++state_.stats.pagesBacked;
            if (config_.coalescingEnabled && !info.coalesced)
                coalescer_.tryCoalesce(frame);
            // Trident tiering: a partially repopulated frame cannot
            // take the 2MB promotion yet, but the run around this page
            // may already be whole again.
            if (tiered() && !info.coalesced) {
                coalescer_.tryCoalesceRun(
                    frame, va_page,
                    config_.coalesceResidentThreshold > 0);
            }
            envMutated(state_.env, "mosaic.backPage.chunkSlot");
            return true;
        }
    }

    // Loose path: head/tail pages outside any reserved chunk, or pages
    // whose chunk could not get a frame.
    if (backLoosePage(st, app, va_page)) {
        ++state_.stats.pagesBacked;
        envMutated(state_.env, "mosaic.backPage.loose");
        return true;
    }
    return false;
}

bool
MosaicManager::backLoosePage(MosaicAppState &app, AppId appId, Addr vaPage)
{
    PageTable &pt = *app.pageTable;
    for (int attempt = 0; attempt < 3; ++attempt) {
        // Drain the per-application free base page list first.
        while (!app.freeBaseSlots.empty()) {
            const auto [frame, slot] = app.freeBaseSlots.back();
            app.freeBaseSlots.pop_back();
            FrameInfo &info = state_.pool.frame(frame);
            if (info.used[slot] || info.pinned[slot])
                continue;  // stale entry
            state_.pool.allocateSlot(frame, slot, appId, vaPage);
            pt.mapBasePage(vaPage, state_.pool.slotAddr(frame, slot));
            return true;
        }

        // Refill from the free frame list: claim a whole frame for this
        // application (the soft guarantee).
        if (!state_.freeFrames.empty()) {
            const std::uint32_t frame = state_.freeFrames.back();
            state_.freeFrames.pop_back();
            state_.pool.frame(frame).owner = appId;
            mmtrace::frameAlloc(state_, frame, appId, "loose");
            for (unsigned s = 0; s < kBasePagesPerLargePage; ++s) {
                app.freeBaseSlots.emplace_back(
                    frame, static_cast<std::uint16_t>(s));
            }
            continue;
        }

        // Out of frames: ask CAC to reclaim capacity.
        ++state_.stats.outOfFrames;
        if (cac_.reclaim(appId))
            continue;
        break;
    }

    // Last resort: take any free slot anywhere (pre-fragmented frames or
    // other applications' partial frames), violating the soft guarantee.
    for (std::size_t f = 0; f < state_.pool.numFrames(); ++f) {
        FrameInfo &info = state_.pool.frame(f);
        if (info.coalesced || info.freeSlots() == 0)
            continue;
        if (state_.frameChunkVa[f] != kInvalidAddr)
            continue;  // keep reserved chunks intact
        for (unsigned s = 0; s < kBasePagesPerLargePage; ++s) {
            if (info.used[s] || info.pinned[s])
                continue;
            const AppId prev_owner = info.owner;
            if (prev_owner != appId && prev_owner != kInvalidAppId) {
                ++state_.stats.softGuaranteeViolations;
                mmtrace::violation(state_, static_cast<std::uint32_t>(f),
                                   mmtrace::kSiteLooseLastResort);
            }
            state_.pool.allocateSlot(f, s, appId, vaPage);
            if (prev_owner == kInvalidAppId) {
                // The frame only now gained an owner: open its flow.
                mmtrace::frameAlloc(state_, static_cast<std::uint32_t>(f),
                                    appId, "lastResort");
            }
            pt.mapBasePage(vaPage, state_.pool.slotAddr(f, s));
            return true;
        }
    }
    return false;
}

void
MosaicManager::releaseRegion(AppId app, Addr vaBase, std::uint64_t bytes)
{
    auto it = state_.apps.find(app);
    MOSAIC_ASSERT(it != state_.apps.end(), "release for unknown app");
    PageTable &pt = *it->second.pageTable;

    // Unmap and free every mapped page, collecting the touched frames.
    std::vector<std::uint32_t> touched;
    for (Addr va = basePageBase(vaBase); va < vaBase + bytes;
         va += kBasePageSize) {
        if (!pt.isMapped(va))
            continue;
        const Addr pa = pt.translate(va).physAddr;
        const std::size_t frame = state_.pool.frameIndex(pa);
        const auto slot = static_cast<unsigned>(
            basePageIndexInLargePage(pa));
        pt.unmapBasePage(va);
        // Shoot the released translation down: the VA can be re-reserved
        // and remapped to a different frame, and a stale TLB entry would
        // keep serving the old physical page.
        if (state_.env.translation != nullptr)
            state_.env.translation->shootdown(app, va, 0);
        state_.pool.freeSlot(frame, slot);
        ++state_.stats.pagesReleased;
        if (touched.empty() || touched.back() != frame)
            touched.push_back(static_cast<std::uint32_t>(frame));
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());

    for (const std::uint32_t frame : touched) {
        FrameInfo &info = state_.pool.frame(frame);
        // Trident tiering: deallocation that punched a hole into a
        // promoted intermediate-level run demotes that run (intact
        // runs keep their reach). Top-coalesced frames keep everything
        // until CAC decides their fate below.
        if (!info.coalesced && info.hasMidRuns())
            cac_.splinterMidRuns(frame, /*onlyBroken=*/true);
        if (info.coalesced) {
            if (info.usedCount == 0) {
                cac_.splinterFrame(frame);
                cac_.compactFrame(frame);  // empty -> retires the frame
            } else {
                cac_.onFrameFragmented(frame);
            }
        } else if (info.empty()) {
            cac_.compactFrame(frame);  // empty -> retires the frame
        } else if (info.owner == app && !info.mixed &&
                   state_.frameChunkVa[frame] == kInvalidAddr) {
            // Partial loose frame: return the freed slots to the owner's
            // free base page list.
            auto &slots = it->second.freeBaseSlots;
            for (unsigned s = 0; s < kBasePagesPerLargePage; ++s) {
                if (!info.used[s] && !info.pinned[s]) {
                    const auto entry = std::make_pair(
                        frame, static_cast<std::uint16_t>(s));
                    if (std::find(slots.begin(), slots.end(), entry) ==
                        slots.end()) {
                        slots.push_back(entry);
                    }
                }
            }
        }
    }
    envMutated(state_.env, "mosaic.releaseRegion");
}

std::uint64_t
MosaicManager::allocatedBytes() const
{
    // Coalesced frames hold the whole 2MB (holes inside them cannot be
    // reused while coalesced); other frames count only committed pages.
    std::uint64_t bytes = 0;
    for (std::size_t f = 0; f < state_.pool.numFrames(); ++f) {
        const FrameInfo &info = state_.pool.frame(f);
        if (info.coalesced)
            bytes += kLargePageSize;
        else
            bytes += info.usedCount * kBasePageSize;
    }
    return bytes;
}

std::uint64_t
MosaicManager::coalescedHoleBytes() const
{
    std::uint64_t holes = 0;
    for (std::size_t f = 0; f < state_.pool.numFrames(); ++f) {
        const FrameInfo &info = state_.pool.frame(f);
        if (info.coalesced)
            holes += info.freeSlots() * kBasePageSize;
    }
    return holes;
}

void
MosaicManager::injectFragmentation(double fragmentationIndex,
                                   double frameOccupancy,
                                   std::uint64_t seed)
{
    Rng rng(seed);
    const auto pinned_per_frame = static_cast<unsigned>(
        frameOccupancy * kBasePagesPerLargePage);
    if (pinned_per_frame == 0)
        return;

    std::vector<std::uint32_t> still_free;
    still_free.reserve(state_.freeFrames.size());
    for (const std::uint32_t frame : state_.freeFrames) {
        if (rng.chance(fragmentationIndex)) {
            state_.pool.pinFragments(frame, pinned_per_frame, rng);
            mmtrace::frameAlloc(state_, frame, state_.pool.frame(frame).owner,
                                "alien");
        } else {
            still_free.push_back(frame);
        }
    }
    state_.freeFrames = std::move(still_free);
}

void
MosaicManager::serialize(ckpt::Archive &ar)
{
    ar.io(state_.pool);
    ar.expect(state_.frameChunkVa.size(), "frame-chunk table size");
    for (Addr &va : state_.frameChunkVa)
        ar.io(va);
    // Free and emergency lists keep their exact order: allocation pops
    // from the back, so the order is allocation-visible state.
    ar.io(state_.freeFrames, 1u << 28, "free frames");
    ar.io(state_.emergencyFrames, 1u << 28, "emergency frames");
    ar.io(state_.apps, 1u << 16, "app slots");
    ar.io(state_.stats);
    ar.io(cac_);
}

}  // namespace mosaic
