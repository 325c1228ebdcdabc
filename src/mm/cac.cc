#include "mm/cac.h"

#include <algorithm>

#include "dram/dram.h"
#include "mm/mm_trace.h"
#include "vm/translation.h"

namespace mosaic {

unsigned
Cac::channelOf(Addr pa) const
{
    // Migration locality must use the DRAM model's real channel mapping
    // (it depends on DramConfig::channelInterleave); a private frame-
    // granular heuristic here once disagreed with the timing model and
    // mischarged in-DRAM copy latency for bus-path migrations.
    return state_.env.dram != nullptr ? state_.env.dram->channelOf(pa) : 0;
}

void
Cac::onFrameFragmented(std::uint32_t frameIdx)
{
    FrameInfo &frame = state_.pool.frame(frameIdx);
    MOSAIC_ASSERT(frame.coalesced, "fragment callback on uncoalesced frame");
    mmtrace::frameMark(state_, "frame.fragmented", frameIdx,
                       {"used", frame.usedCount});

    if (!config_.enabled || frame.usedCount >= config_.occupancyThresholdPages) {
        // Keep the coalesced translation (it still improves TLB reach);
        // remember the frame as an emergency reserve.
        if (!inEmergency_[frameIdx]) {
            inEmergency_[frameIdx] = true;
            state_.emergencyFrames.push_back(frameIdx);
        }
        envMutated(state_.env, "cac.frameFragmented");
        return;
    }

    splinterFrame(frameIdx);
    compactFrame(frameIdx);
    envMutated(state_.env, "cac.frameFragmented");
}

void
Cac::splinterFrame(std::uint32_t frameIdx)
{
    FrameInfo &frame = state_.pool.frame(frameIdx);
    MOSAIC_ASSERT(frame.coalesced, "splinter of uncoalesced frame");
    const Addr chunk_va = state_.frameChunkVa[frameIdx];
    MOSAIC_ASSERT(chunk_va != kInvalidAddr, "coalesced frame without chunk");

    auto app_it = state_.apps.find(frame.owner);
    MOSAIC_ASSERT(app_it != state_.apps.end(), "splinter of ownerless frame");
    PageTable &pt = *app_it->second.pageTable;

    pt.splinter(chunk_va);
    // The page table cascades the splinter through any promoted
    // intermediate-level runs beneath the frame; mirror that in the
    // pool's run masks (re-promotion is an explicit manager decision).
    frame.midRuns.fill(0);
    frame.coalesced = false;
    ++state_.stats.splinterOps;
    mmtrace::frameMark(state_, "frame.splinter", frameIdx,
                       {"used", frame.usedCount});

    // Splintering must shoot the stale large-page mapping down in every
    // TLB level before any base mapping can change (paper §4.4).
    if (state_.env.translation != nullptr)
        state_.env.translation->shootdown(frame.owner, chunk_va,
                                          pt.sizes().topLevel());
    if (state_.env.dram != nullptr) {
        const auto path = pt.walkPath(chunk_va);
        const unsigned d = pt.coalesceBitDepth(pt.sizes().topLevel());
        state_.env.dram->access(path[d], true, [] {});
        state_.env.dram->access(path[d + 1], true, [] {});
    }
    envMutated(state_.env, "cac.splinterFrame");
}

void
Cac::splinterMidRuns(std::uint32_t frameIdx, bool onlyBroken)
{
    FrameInfo &frame = state_.pool.frame(frameIdx);
    if (!frame.hasMidRuns())
        return;
    const Addr chunk_va = state_.frameChunkVa[frameIdx];
    MOSAIC_ASSERT(chunk_va != kInvalidAddr,
                  "promoted runs outside a chunk frame");
    auto app_it = state_.apps.find(frame.owner);
    MOSAIC_ASSERT(app_it != state_.apps.end(),
                  "splinter of ownerless frame");
    PageTable &pt = *app_it->second.pageTable;
    const PageSizeHierarchy &hs = pt.sizes();

    // Highest level first so a run splinter's cascade through the
    // levels beneath it can be mirrored in the lower masks before they
    // are scanned.
    for (unsigned level = hs.numLevels() - 1; level-- > 1;) {
        std::uint64_t mask = frame.midRuns[level - 1];
        const auto run_slots = static_cast<unsigned>(hs.basePagesPer(level));
        for (unsigned run_idx = 0; mask != 0; ++run_idx, mask >>= 1) {
            if ((mask & 1) == 0)
                continue;
            const unsigned first_slot = run_idx * run_slots;
            if (onlyBroken) {
                bool intact = true;
                for (unsigned s = first_slot;
                     s < first_slot + run_slots && intact; ++s) {
                    intact = frame.used[s];
                }
                if (intact)
                    continue;
            }
            const Addr run_va = chunk_va + Addr(first_slot) * kBasePageSize;
            pt.splinterLevel(run_va, level);
            frame.midRuns[level - 1] &= ~(std::uint64_t(1) << run_idx);
            // The page table cleared every lower-level run beneath too.
            for (unsigned lower = 1; lower < level; ++lower) {
                const auto lower_slots =
                    static_cast<unsigned>(hs.basePagesPer(lower));
                const unsigned lo = first_slot / lower_slots;
                const unsigned n = run_slots / lower_slots;
                frame.midRuns[lower - 1] &=
                    ~(((std::uint64_t(1) << n) - 1) << lo);
            }
            ++state_.stats.midSplinterOps;
            mmtrace::frameMark(state_, "frame.splinterRun", frameIdx,
                               {"level", level});
            if (state_.env.translation != nullptr) {
                state_.env.translation->shootdown(frame.owner, run_va, level);
            }
            if (state_.env.dram != nullptr) {
                const auto path = pt.walkPath(run_va);
                const unsigned d = pt.coalesceBitDepth(level);
                state_.env.dram->access(path[d], true, [] {});
                state_.env.dram->access(path[d + 1], true, [] {});
            }
        }
    }
    envMutated(state_.env, "cac.splinterMidRuns");
}

Cycles
Cac::migrationCycles(Addr src, Addr dst) const
{
    if (config_.ideal || state_.env.dram == nullptr)
        return 0;
    // Single source of truth: charge exactly what bulkCopyPage will
    // model for the same (src, dst, useBulkCopy) triple.
    return state_.env.dram->bulkCopyCycles(src, dst, config_.useBulkCopy);
}

bool
Cac::compactFrame(std::uint32_t frameIdx)
{
    FrameInfo &frame = state_.pool.frame(frameIdx);
    if (frame.coalesced || frame.mixed || frame.pinnedCount != 0)
        return false;
    // Every surviving page is about to move: demote any promoted
    // intermediate-level runs first (their contiguity is about to go).
    splinterMidRuns(frameIdx, /*onlyBroken=*/false);
    if (frame.usedCount == 0) {
        retireEmptyFrame(frameIdx);
        return true;
    }

    auto app_it = state_.apps.find(frame.owner);
    if (app_it == state_.apps.end())
        return false;
    MosaicAppState &app = app_it->second;

    // Gather destination slots: free base pages in any non-coalesced,
    // non-chunk-reserved frame. Prefer frames owned by this application
    // (preserving the soft guarantee), and within those prefer the same
    // memory channel so CAC-BC can use in-DRAM copy. Frames of other
    // owners (including pre-fragmented ones) are a last resort under
    // memory pressure. Frame-base channel is only an ordering heuristic
    // (under line interleave slots of one frame span all channels); the
    // actual per-migration cost always comes from migrationCycles.
    const unsigned src_channel = channelOf(state_.pool.frameBase(frameIdx));

    struct Dest
    {
        std::uint32_t frame;
        std::uint16_t slot;
        bool ownerMatch;
        bool sameChannel;
    };
    std::vector<Dest> dests;
    auto collect = [&](bool owner_pass) {
        // Same-channel frames first (in-DRAM copy eligibility), then the
        // rest, bounded so the scan stays cheap.
        for (const bool channel_pass : {true, false}) {
            for (std::size_t f = 0; f < state_.pool.numFrames() &&
                                    dests.size() < 2 * frame.usedCount;
                 ++f) {
                if (f == frameIdx)
                    continue;
                const FrameInfo &info = state_.pool.frame(f);
                if (info.coalesced || info.freeSlots() == 0)
                    continue;
                if (state_.frameChunkVa[f] != kInvalidAddr)
                    continue;
                const bool owner_match =
                    info.owner == frame.owner && !info.mixed;
                if (owner_match != owner_pass)
                    continue;
                if (!owner_match && info.usedCount + info.pinnedCount == 0)
                    continue;  // empty foreign frame: nothing to gain
                const bool same_channel =
                    channelOf(state_.pool.frameBase(f)) == src_channel;
                if (same_channel != channel_pass)
                    continue;
                for (unsigned s = 0; s < kBasePagesPerLargePage; ++s) {
                    if (!info.used[s] && !info.pinned[s]) {
                        dests.push_back(
                            Dest{static_cast<std::uint32_t>(f),
                                 static_cast<std::uint16_t>(s),
                                 owner_match, same_channel});
                    }
                }
            }
        }
    };
    // Own frames first; foreign holes only under real memory pressure
    // (no free frames left), which is the only path that may mix
    // owners. With free frames available, an unprofitable compaction is
    // simply skipped instead.
    collect(true);
    if (dests.size() < frame.usedCount && state_.freeFrames.empty())
        collect(false);
    if (dests.size() < frame.usedCount)
        return false;  // not enough room to empty the frame

    std::stable_sort(dests.begin(), dests.end(),
                     [](const Dest &a, const Dest &b) {
        if (a.ownerMatch != b.ownerMatch)
            return a.ownerMatch;
        return a.sameChannel > b.sameChannel;
    });

    // Per-migration destination choice. The owner preference (soft
    // guarantee) always dominates; within an owner class, prefer a slot
    // on the same memory channel as the source page so CAC-BC's in-DRAM
    // copy is actually eligible (slot channels differ within one frame
    // under line/page interleave, so this must be decided per slot, not
    // per frame).
    std::vector<bool> taken(dests.size(), false);
    auto pick_dest = [&](Addr srcPa) {
        const unsigned want = channelOf(srcPa);
        std::size_t best = dests.size();
        int best_rank = -1;
        for (std::size_t i = 0; i < dests.size(); ++i) {
            if (taken[i])
                continue;
            const Addr dst_pa =
                state_.pool.slotAddr(dests[i].frame, dests[i].slot);
            const int rank = (dests[i].ownerMatch ? 2 : 0) +
                             (channelOf(dst_pa) == want ? 1 : 0);
            if (rank > best_rank) {
                best_rank = rank;
                best = i;
                if (rank == 3)
                    break;
            }
        }
        taken[best] = true;
        return dests[best];
    };

    Cycles total_stall = 0;
    std::size_t migrated = 0;
    for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot) {
        if (!frame.used[slot])
            continue;
        const Dest dest = pick_dest(state_.pool.slotAddr(frameIdx, slot));
        ++migrated;
        if (!dest.ownerMatch) {
            ++state_.stats.softGuaranteeViolations;
            mmtrace::violation(state_, dest.frame,
                               mmtrace::kSiteCompactDest);
        }

        const Addr va = frame.slotVa[slot];
        const Addr src_pa = state_.pool.slotAddr(frameIdx, slot);
        const Addr dst_pa = state_.pool.slotAddr(dest.frame, dest.slot);

        state_.pool.allocateSlot(dest.frame, dest.slot, frame.owner, va);
        app.pageTable->remapBasePage(va, dst_pa);
        if (state_.env.translation != nullptr)
            state_.env.translation->shootdown(frame.owner, va, 0);
        state_.pool.freeSlot(frameIdx, slot);
        ++state_.stats.migrations;

        const Cycles stall = migrationCycles(src_pa, dst_pa);
        total_stall += stall;
        if (state_.env.checker != nullptr) {
            state_.env.checker->onMigrationCharged(src_pa, dst_pa,
                                                   config_.useBulkCopy,
                                                   stall);
        }
        if (!config_.ideal && state_.env.dram != nullptr) {
            state_.env.dram->bulkCopyPage(src_pa, dst_pa,
                                          config_.useBulkCopy, [] {});
        }
    }

    if (total_stall > 0 && state_.env.stallGpu)
        state_.env.stallGpu(total_stall);

    MOSAIC_ASSERT(frame.usedCount == 0, "compaction left pages behind");
    mmtrace::frameMark(state_, "frame.compact", frameIdx,
                       {"migrated", migrated}, {"stall", total_stall});
    retireEmptyFrame(frameIdx);
    ++state_.stats.compactions;
    envMutated(state_.env, "cac.compactFrame");
    return true;
}

bool
Cac::consolidateAlienFrame()
{
    // Source: the alien-only frame with the fewest fragment pages (and
    // below the occupancy threshold -- past that, the paper's data shows
    // compaction stops paying off).
    std::uint32_t src = 0;
    std::uint16_t src_count = 0;
    bool found = false;
    for (std::size_t f = 0; f < state_.pool.numFrames(); ++f) {
        const FrameInfo &info = state_.pool.frame(f);
        if (info.usedCount != 0 || info.pinnedCount == 0)
            continue;
        if (info.coalesced || state_.frameChunkVa[f] != kInvalidAddr)
            continue;
        if (info.pinnedCount > config_.occupancyThresholdPages)
            continue;
        if (!found || info.pinnedCount < src_count) {
            src = static_cast<std::uint32_t>(f);
            src_count = info.pinnedCount;
            found = true;
        }
    }
    if (!found)
        return false;

    const unsigned src_channel = channelOf(state_.pool.frameBase(src));

    // Destinations: holes in other alien frames (avoid polluting frames
    // that hold application data), same channel first. Collect extra
    // candidates so the per-slot channel match below has room to choose.
    std::vector<std::pair<std::uint32_t, std::uint16_t>> dests;
    for (const bool channel_pass : {true, false}) {
        for (std::size_t f = 0; f < state_.pool.numFrames() &&
                                dests.size() < 2 * src_count;
             ++f) {
            if (f == src)
                continue;
            const FrameInfo &info = state_.pool.frame(f);
            if (info.pinnedCount == 0 || info.usedCount != 0 ||
                info.coalesced || info.freeSlots() == 0)
                continue;
            if (state_.frameChunkVa[f] != kInvalidAddr)
                continue;
            const bool same_channel =
                channelOf(state_.pool.frameBase(f)) == src_channel;
            if (same_channel != channel_pass)
                continue;
            for (unsigned s = 0;
                 s < kBasePagesPerLargePage && dests.size() < 2 * src_count;
                 ++s) {
                if (!info.used[s] && !info.pinned[s])
                    dests.emplace_back(static_cast<std::uint32_t>(f),
                                       static_cast<std::uint16_t>(s));
            }
        }
    }
    if (dests.size() < src_count)
        return false;

    std::vector<bool> taken(dests.size(), false);
    auto pick_dest = [&](Addr srcPa) {
        const unsigned want = channelOf(srcPa);
        std::size_t best = dests.size();
        bool best_match = false;
        for (std::size_t i = 0; i < dests.size(); ++i) {
            if (taken[i])
                continue;
            const bool match =
                channelOf(state_.pool.slotAddr(dests[i].first,
                                               dests[i].second)) == want;
            if (best == dests.size() || (match && !best_match)) {
                best = i;
                best_match = match;
                if (match)
                    break;
            }
        }
        taken[best] = true;
        return dests[best];
    };

    Cycles total_stall = 0;
    std::size_t migrated = 0;
    FrameInfo &src_info = state_.pool.frame(src);
    for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot) {
        if (!src_info.pinned[slot])
            continue;
        const auto [dst_frame, dst_slot] =
            pick_dest(state_.pool.slotAddr(src, slot));
        ++migrated;
        const Addr src_pa = state_.pool.slotAddr(src, slot);
        const Addr dst_pa = state_.pool.slotAddr(dst_frame, dst_slot);
        state_.pool.moveFragment(src, slot, dst_frame, dst_slot);
        ++state_.stats.migrations;
        const Cycles stall = migrationCycles(src_pa, dst_pa);
        total_stall += stall;
        if (state_.env.checker != nullptr) {
            state_.env.checker->onMigrationCharged(src_pa, dst_pa,
                                                   config_.useBulkCopy,
                                                   stall);
        }
        if (!config_.ideal && state_.env.dram != nullptr) {
            state_.env.dram->bulkCopyPage(src_pa, dst_pa,
                                          config_.useBulkCopy, [] {});
        }
    }
    if (total_stall > 0 && state_.env.stallGpu)
        state_.env.stallGpu(total_stall);

    MOSAIC_ASSERT(src_info.empty(), "alien consolidation left data");
    mmtrace::frameMark(state_, "frame.compact", src,
                       {"migrated", migrated}, {"alien", 1});
    retireEmptyFrame(src);
    ++state_.stats.compactions;
    envMutated(state_.env, "cac.consolidateAlien");
    return true;
}

void
Cac::retireEmptyFrame(std::uint32_t frameIdx)
{
    FrameInfo &frame = state_.pool.frame(frameIdx);
    MOSAIC_ASSERT(frame.empty(), "retiring a non-empty frame");
    MOSAIC_ASSERT(!frame.coalesced, "retiring a coalesced frame");

    // Drop any chunk reservation and free-slot entries referring to the
    // frame; it returns to CoCoA unassigned.
    const Addr chunk_va = state_.frameChunkVa[frameIdx];
    if (chunk_va != kInvalidAddr) {
        for (auto &[id, app] : state_.apps)
            app.chunkFrames.erase(largePageNumber(chunk_va));
        state_.frameChunkVa[frameIdx] = kInvalidAddr;
    }
    for (auto &[id, app] : state_.apps) {
        auto &slots = app.freeBaseSlots;
        slots.erase(std::remove_if(slots.begin(), slots.end(),
                                   [frameIdx](const auto &s) {
                                       return s.first == frameIdx;
                                   }),
                    slots.end());
    }
    state_.pool.resetOwner(frameIdx);
    inEmergency_[frameIdx] = false;
    state_.freeFrames.push_back(frameIdx);
    mmtrace::frameFree(state_, frameIdx);
}

bool
Cac::reclaim(AppId requester)
{
    // Pass 1: empty the most lightly-used compactable frame.
    if (config_.enabled) {
        std::uint32_t best = 0;
        std::uint16_t best_count = 0;
        bool found = false;
        for (std::size_t i = 0; i < state_.pool.numFrames(); ++i) {
            const FrameInfo &f = state_.pool.frame(i);
            if (f.coalesced || f.mixed || f.pinnedCount != 0)
                continue;
            if (f.usedCount == 0 || f.usedCount > config_.occupancyThresholdPages)
                continue;
            if (state_.frameChunkVa[i] != kInvalidAddr)
                continue;  // reserved chunks must keep their contiguity
            if (!found || f.usedCount < best_count) {
                best = static_cast<std::uint32_t>(i);
                best_count = f.usedCount;
                found = true;
            }
        }
        if (found && compactFrame(best))
            return true;
    }

    // Pass 1.5: consolidate pre-fragmented data to free a frame.
    if (config_.enabled && consolidateAlienFrame())
        return true;

    // Pass 2: the failsafe -- splinter an emergency frame and donate its
    // holes to the requester as plain base pages.
    while (!state_.emergencyFrames.empty()) {
        const std::uint32_t frameIdx = state_.emergencyFrames.back();
        state_.emergencyFrames.pop_back();
        if (!inEmergency_[frameIdx])
            continue;  // stale entry (frame was retired meanwhile)
        inEmergency_[frameIdx] = false;

        FrameInfo &frame = state_.pool.frame(frameIdx);
        if (!frame.coalesced || frame.empty())
            continue;

        splinterFrame(frameIdx);
        ++state_.stats.emergencySplinters;
        mmtrace::frameMark(state_, "frame.emergencySplinter", frameIdx,
                           {"requester", static_cast<std::uint64_t>(requester)});
        if (frame.owner != requester) {
            ++state_.stats.softGuaranteeViolations;
            mmtrace::violation(state_, frameIdx,
                               mmtrace::kSiteEmergencyDonate);
        }

        // The chunk reservation is gone for good: holes will now hold
        // unrelated pages, so the region can never re-coalesce here.
        const Addr chunk_va = state_.frameChunkVa[frameIdx];
        if (chunk_va != kInvalidAddr) {
            for (auto &[id, app] : state_.apps)
                app.chunkFrames.erase(largePageNumber(chunk_va));
            state_.frameChunkVa[frameIdx] = kInvalidAddr;
        }

        auto req_it = state_.apps.find(requester);
        MOSAIC_ASSERT(req_it != state_.apps.end(), "unknown requester");
        for (unsigned slot = 0; slot < kBasePagesPerLargePage; ++slot) {
            if (!frame.used[slot] && !frame.pinned[slot]) {
                req_it->second.freeBaseSlots.emplace_back(
                    frameIdx, static_cast<std::uint16_t>(slot));
            }
        }
        envMutated(state_.env, "cac.emergencySplinter");
        return true;
    }
    return false;
}

}  // namespace mosaic
