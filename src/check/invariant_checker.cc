#include "check/invariant_checker.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/log.h"
#include "dram/dram.h"
#include "mm/frame_pool.h"
#include "mm/memory_manager.h"
#include "mm/mosaic_state.h"
#include "vm/translation.h"

namespace mosaic {

namespace {

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

}  // namespace

void
InvariantChecker::attachManager(const MemoryManager *manager)
{
    manager_ = manager;
    pool_ = manager != nullptr ? manager->framePool() : nullptr;
}

void
InvariantChecker::attachMosaicState(const MosaicState *state)
{
    mosaicState_ = state;
}

void
InvariantChecker::attachCacConfig(const CacConfig *cac)
{
    cacConfig_ = cac;
}

void
InvariantChecker::attachTranslation(const TranslationService *translation)
{
    translation_ = translation;
}

void
InvariantChecker::attachDram(const DramModel *dram)
{
    dram_ = dram;
}

void
InvariantChecker::observePageTable(PageTable &pageTable)
{
    tables_[pageTable.appId()] = &pageTable;
    shadow_[pageTable.appId()];  // materialize the shadow entry
    pageTable.setObserver(this);
}

void
InvariantChecker::fail(const std::string &what)
{
    ++violations_;
    if (reports_.size() < config_.maxReports)
        reports_.push_back(what);
    if (config_.abortOnViolation)
        MOSAIC_PANIC("invariant violation: " + what);
}

std::uint64_t
InvariantChecker::tlbKey(AppId app, std::uint64_t vpn)
{
    return (static_cast<std::uint64_t>(app) << 44) | vpn;
}

// ---------------------------------------------------------------------------
// Shadow translation map (PageTableObserver)
// ---------------------------------------------------------------------------

void
InvariantChecker::onMap(AppId app, Addr va, Addr pa, bool resident)
{
    ShadowApp &sh = shadow_[app];
    const std::uint64_t vpn = basePageNumber(va);
    if (sh.pages.count(vpn) > 0)
        fail("shadow: double map of app " + std::to_string(app) + " va " +
             hex(va));
    sh.pages[vpn] = ShadowPte{basePageBase(pa), resident};
}

void
InvariantChecker::onUnmap(AppId app, Addr va)
{
    ShadowApp &sh = shadow_[app];
    if (sh.pages.erase(basePageNumber(va)) == 0)
        fail("shadow: unmap of unmapped app " + std::to_string(app) +
             " va " + hex(va));
}

void
InvariantChecker::onRemap(AppId app, Addr va, Addr newPa)
{
    ShadowApp &sh = shadow_[app];
    const auto it = sh.pages.find(basePageNumber(va));
    if (it == sh.pages.end()) {
        fail("shadow: remap of unmapped app " + std::to_string(app) +
             " va " + hex(va));
        return;
    }
    it->second.pa = basePageBase(newPa);
}

void
InvariantChecker::onResident(AppId app, Addr va)
{
    ShadowApp &sh = shadow_[app];
    const auto it = sh.pages.find(basePageNumber(va));
    if (it == sh.pages.end()) {
        fail("shadow: markResident of unmapped app " + std::to_string(app) +
             " va " + hex(va));
        return;
    }
    it->second.resident = true;
}

void
InvariantChecker::onCoalesce(AppId app, Addr vaLargeBase)
{
    shadow_[app].coalesced.insert(largePageNumber(vaLargeBase));
}

void
InvariantChecker::onSplinter(AppId app, Addr vaLargeBase)
{
    if (shadow_[app].coalesced.erase(largePageNumber(vaLargeBase)) == 0)
        fail("shadow: splinter of uncoalesced app " + std::to_string(app) +
             " region " + hex(vaLargeBase));
}

const PageSizeHierarchy &
InvariantChecker::appSizes(AppId app) const
{
    static const PageSizeHierarchy kDefault{};
    const auto it = tables_.find(app);
    return it != tables_.end() ? it->second->sizes() : kDefault;
}

void
InvariantChecker::onCoalesceLevel(AppId app, Addr vaBase, unsigned level)
{
    const std::uint64_t vpn = appSizes(app).pageNumber(vaBase, level);
    if (!shadow_[app].mid[level - 1].insert(vpn).second)
        fail("shadow: double coalesce of app " + std::to_string(app) +
             " level-" + std::to_string(level) + " region " + hex(vaBase));
}

void
InvariantChecker::onSplinterLevel(AppId app, Addr vaBase, unsigned level)
{
    const std::uint64_t vpn = appSizes(app).pageNumber(vaBase, level);
    if (shadow_[app].mid[level - 1].erase(vpn) == 0)
        fail("shadow: splinter of uncoalesced app " + std::to_string(app) +
             " level-" + std::to_string(level) + " region " + hex(vaBase));
}

// ---------------------------------------------------------------------------
// CheckSink events
// ---------------------------------------------------------------------------

void
InvariantChecker::onMutation(const char *site)
{
    ++mutations_;
    // Nested component sites (cac.*, coalescer.*) fire part-way through
    // a public manager operation, where the structures are transiently
    // inconsistent (a multi-frame release splinters its frames one at a
    // time). Invariants are only guaranteed at operation boundaries, so
    // sweeps trigger on the managers' top-level end-of-operation sites.
    if (std::strncmp(site, "cac.", 4) == 0 ||
        std::strncmp(site, "coalescer.", 10) == 0)
        return;
    if (config_.fullSweepEvery != 0 &&
        mutations_ % config_.fullSweepEvery == 0)
        verifyAll();
}

unsigned
InvariantChecker::shadowChannel(Addr pa) const
{
    // Deliberately re-derived from the raw config (not decode()/
    // channelOf()) so a regression in either side's math is caught.
    const DramConfig &cfg = dram_->config();
    switch (cfg.channelInterleave) {
    case ChannelInterleave::Line:
        return static_cast<unsigned>((pa / kCacheLineSize) % cfg.channels);
    case ChannelInterleave::Page:
        return static_cast<unsigned>((pa / kBasePageSize) % cfg.channels);
    case ChannelInterleave::Frame:
        return static_cast<unsigned>((pa / kLargePageSize) % cfg.channels);
    }
    return 0;
}

void
InvariantChecker::onMigrationCharged(Addr srcPa, Addr dstPa, bool inDramCopy,
                                     Cycles charged)
{
    Cycles expected = 0;
    if (dram_ != nullptr && (cacConfig_ == nullptr || !cacConfig_->ideal)) {
        const DramConfig &cfg = dram_->config();
        const bool same_channel =
            shadowChannel(srcPa) == shadowChannel(dstPa);
        expected = inDramCopy && same_channel
                       ? cfg.bulkCopyInDramCycles
                       : (kBasePageSize / kCacheLineSize) *
                             cfg.bulkCopyViaBusCyclesPerLine;
        // The model must agree with the shadow derivation too.
        const Cycles modeled =
            dram_->bulkCopyCycles(srcPa, dstPa, inDramCopy);
        if (modeled != expected)
            fail("cost: DramModel::bulkCopyCycles models " +
                 std::to_string(modeled) + " cycles for " + hex(srcPa) +
                 " -> " + hex(dstPa) + " but the shadow derivation gives " +
                 std::to_string(expected));
    }
    if (charged != expected)
        fail("cost: CAC charged " + std::to_string(charged) +
             " stall cycles for migration " + hex(srcPa) + " -> " +
             hex(dstPa) + " but the DRAM path costs " +
             std::to_string(expected));
}

void
InvariantChecker::onAuditedViolation(AuditedSite site)
{
    (void)site;
    ++audited_;
}

void
InvariantChecker::onTlbFill(AppId app, std::uint64_t vpn, unsigned level)
{
    const auto it = tables_.find(app);
    if (it == tables_.end())
        return;
    const PageSizeHierarchy &hs = it->second->sizes();
    const Addr va = static_cast<Addr>(vpn) << hs.bits(level);
    const Translation t = it->second->translate(va);
    // Fills for since-unmapped pages can legitimately come from stale L2
    // entries (unmap does not shoot down); only record valid mappings.
    if (!t.valid)
        return;
    // Unlike base entries, coalesced-level demotions always shoot down,
    // so a coalesced-level fill must match the live translation level
    // exactly.
    if (level != 0 && t.level != level) {
        fail("tlb: level-" + std::to_string(level) + " fill for app " +
             std::to_string(app) + " region " + hex(va) +
             " whose translation level is " + std::to_string(t.level));
        return;
    }
    tlb_[level][tlbKey(app, vpn)] = hs.pageBase(t.physAddr, level);
}

void
InvariantChecker::onTlbShootdown(AppId app, std::uint64_t vpn,
                                 unsigned level)
{
    tlb_[level].erase(tlbKey(app, vpn));
}

void
InvariantChecker::onTlbFillColt(AppId app, std::uint64_t groupVpn)
{
    const auto it = tables_.find(app);
    if (it == tables_.end() || translation_ == nullptr)
        return;
    const unsigned span = translation_->l2Tlb().coltSpanPagesLog2();
    const PageSizeHierarchy &hs = it->second->sizes();
    const Addr va = static_cast<Addr>(groupVpn) << (hs.bits(0) + span);
    const Addr base = it->second->contiguousGroupBase(va, span);
    if (base == kInvalidAddr) {
        fail("tlb: CoLT fill for app " + std::to_string(app) + " group " +
             hex(va) + " that is not a contiguous resident run");
        return;
    }
    tlbColt_[tlbKey(app, groupVpn)] = base;
}

void
InvariantChecker::onTlbShootdownColt(AppId app, std::uint64_t groupVpn)
{
    tlbColt_.erase(tlbKey(app, groupVpn));
}

// ---------------------------------------------------------------------------
// Verification sweeps
// ---------------------------------------------------------------------------

template <typename Probe>
bool
InvariantChecker::anyTlb(Probe probe) const
{
    if (probe(translation_->l2Tlb()))
        return true;
    for (unsigned sm = 0; sm < translation_->numSms(); ++sm) {
        if (probe(translation_->l1Tlb(static_cast<SmId>(sm))))
            return true;
    }
    return false;
}

void
InvariantChecker::verifyAll()
{
    ++sweeps_;
    verifyShadowVsPageTables();
    verifyPoolVsPageTables();
    verifyFrameLegality();
    verifyMosaicState();
    verifyTlbCoherence();
}

void
InvariantChecker::verifyShadowVsPageTables()
{
    for (const auto &[app, pt] : tables_) {
        const ShadowApp &sh = shadow_.at(app);
        if (pt->mappedPages() != sh.pages.size())
            fail("shadow: app " + std::to_string(app) + " page table has " +
                 std::to_string(pt->mappedPages()) +
                 " mapped pages, shadow has " +
                 std::to_string(sh.pages.size()));
        for (const auto &[vpn, pte] : sh.pages) {
            const Addr va = vpn << kBasePageBits;
            const Translation t = pt->translate(va);
            if (!t.valid) {
                fail("shadow: app " + std::to_string(app) + " va " +
                     hex(va) + " mapped in shadow, unmapped in table");
                continue;
            }
            if (basePageBase(t.physAddr) != pte.pa)
                fail("shadow: app " + std::to_string(app) + " va " +
                     hex(va) + " maps to " + hex(basePageBase(t.physAddr)) +
                     ", shadow says " + hex(pte.pa));
            if (t.resident != pte.resident)
                fail("shadow: app " + std::to_string(app) + " va " +
                     hex(va) + " residency mismatch (table " +
                     std::to_string(t.resident) + ", shadow " +
                     std::to_string(pte.resident) + ")");
            bool sh_large = sh.coalesced.count(largePageNumber(va)) > 0;
            for (unsigned m = 0; m < sh.mid.size() && !sh_large; ++m) {
                if (!sh.mid[m].empty())
                    sh_large = sh.mid[m].count(
                                   pt->sizes().pageNumber(va, m + 1)) > 0;
            }
            if ((t.level != 0) != sh_large)
                fail("shadow: app " + std::to_string(app) + " va " +
                     hex(va) + " size-class mismatch (table large=" +
                     std::to_string(t.level != 0) +
                     ", shadow large=" + std::to_string(sh_large) + ")");
        }
        for (const std::uint64_t lvpn : sh.coalesced) {
            if (!pt->isCoalesced(lvpn << kLargePageBits))
                fail("shadow: app " + std::to_string(app) + " region " +
                     hex(lvpn << kLargePageBits) +
                     " coalesced in shadow, not in table");
        }
        for (unsigned m = 0; m < sh.mid.size(); ++m) {
            const unsigned level = m + 1;
            for (const std::uint64_t vpn : sh.mid[m]) {
                const Addr va = static_cast<Addr>(vpn)
                                << pt->sizes().bits(level);
                if (!pt->isCoalescedAt(va, level))
                    fail("shadow: app " + std::to_string(app) +
                         " region " + hex(va) + " coalesced at level " +
                         std::to_string(level) +
                         " in shadow, not in table");
            }
        }
    }
}

void
InvariantChecker::verifyPoolVsPageTables()
{
    if (pool_ == nullptr)
        return;

    // Reverse shadow map: PA -> (app, va). Exactly-one ownership means
    // no two mapped VAs may share a physical base page.
    std::map<Addr, std::pair<AppId, Addr>> byPa;
    for (const auto &[app, sh] : shadow_) {
        for (const auto &[vpn, pte] : sh.pages) {
            const Addr va = vpn << kBasePageBits;
            const auto [it, inserted] =
                byPa.emplace(pte.pa, std::make_pair(app, va));
            if (!inserted)
                fail("pool: pa " + hex(pte.pa) + " backs app " +
                     std::to_string(it->second.first) + " va " +
                     hex(it->second.second) + " AND app " +
                     std::to_string(app) + " va " + hex(va));
        }
    }

    const Addr pool_base = pool_->frameBase(0);
    const Addr pool_end =
        pool_base + pool_->numFrames() * kLargePageSize;

    for (std::size_t f = 0; f < pool_->numFrames(); ++f) {
        const FrameInfo &info = pool_->frame(f);
        if (info.usedCount != info.used.count())
            fail("pool: frame " + std::to_string(f) + " usedCount " +
                 std::to_string(info.usedCount) + " != popcount " +
                 std::to_string(info.used.count()));
        if (info.pinnedCount != info.pinned.count())
            fail("pool: frame " + std::to_string(f) + " pinnedCount " +
                 std::to_string(info.pinnedCount) + " != popcount " +
                 std::to_string(info.pinned.count()));
        for (unsigned s = 0; s < kBasePagesPerLargePage; ++s) {
            const Addr pa = pool_->slotAddr(f, s);
            const auto rev = byPa.find(pa);
            if (info.used[s]) {
                const Addr va =
                    info.slotVa.empty() ? kInvalidAddr : info.slotVa[s];
                if (va == kInvalidAddr) {
                    fail("pool: used slot " + std::to_string(f) + "/" +
                         std::to_string(s) + " has no slotVa");
                    continue;
                }
                if (rev == byPa.end()) {
                    fail("pool: used slot " + std::to_string(f) + "/" +
                         std::to_string(s) + " (va " + hex(va) +
                         ") not mapped in any page table");
                    continue;
                }
                if (rev->second.second != va)
                    fail("pool: slot " + std::to_string(f) + "/" +
                         std::to_string(s) + " slotVa " + hex(va) +
                         " != mapped va " + hex(rev->second.second) +
                         " (slotVa round-trip)");
                if (!info.mixed && info.owner != kInvalidAppId &&
                    info.owner != kFragmentOwner &&
                    rev->second.first != info.owner)
                    fail("pool: unmixed frame " + std::to_string(f) +
                         " owned by app " + std::to_string(info.owner) +
                         " holds a page of app " +
                         std::to_string(rev->second.first));
            } else {
                if (rev != byPa.end())
                    fail("pool: free" +
                         std::string(info.pinned[s] ? " (pinned)" : "") +
                         " slot " + std::to_string(f) + "/" +
                         std::to_string(s) + " still mapped by app " +
                         std::to_string(rev->second.first) + " va " +
                         hex(rev->second.second));
                if (!info.pinned[s] && !info.slotVa.empty() &&
                    info.slotVa[s] != kInvalidAddr)
                    fail("pool: free slot " + std::to_string(f) + "/" +
                         std::to_string(s) + " retains slotVa " +
                         hex(info.slotVa[s]));
            }
        }
    }

    // Reverse direction: every mapped PA inside the pool must be a used
    // slot (a freed slot with a live mapping is the lost-page bug).
    for (const auto &[pa, owner] : byPa) {
        if (pa < pool_base || pa >= pool_end)
            continue;  // page-table nodes etc. live outside the pool
        const std::size_t f = pool_->frameIndex(pa);
        const auto s =
            static_cast<unsigned>(basePageIndexInLargePage(pa));
        if (!pool_->frame(f).used[s])
            fail("pool: app " + std::to_string(owner.first) + " va " +
                 hex(owner.second) + " maps pool pa " + hex(pa) +
                 " whose slot is not allocated");
    }
}

void
InvariantChecker::verifyFrameLegality()
{
    if (pool_ == nullptr)
        return;
    for (std::size_t f = 0; f < pool_->numFrames(); ++f) {
        const FrameInfo &info = pool_->frame(f);
        if (info.hasMidRuns()) {
            // Level-aware legality (Trident): every promoted run must
            // sit in a single-owner chunk frame, carry its page-table
            // bit, and -- unless the frame is top-coalesced, where the
            // §4.4 emergency-failsafe hole rules take over -- keep all
            // of its slots allocated at contiguity-conserving
            // positions.
            const Addr chunk_va = mosaicState_ != nullptr
                                      ? mosaicState_->frameChunkVa[f]
                                      : kInvalidAddr;
            const auto run_pt = tables_.find(info.owner);
            if (info.mixed || chunk_va == kInvalidAddr ||
                run_pt == tables_.end()) {
                fail("frame: frame " + std::to_string(f) +
                     " has promoted runs without a single-owner chunk "
                     "reservation");
            } else {
                const PageTable &pt = *run_pt->second;
                const PageSizeHierarchy &hs = pt.sizes();
                for (unsigned level = 1; level + 1 < hs.numLevels();
                     ++level) {
                    std::uint64_t mask = info.midRuns[level - 1];
                    const auto run_slots =
                        static_cast<unsigned>(hs.basePagesPer(level));
                    for (unsigned run = 0; mask != 0;
                         ++run, mask >>= 1) {
                        if ((mask & 1) == 0)
                            continue;
                        const Addr run_va =
                            chunk_va + static_cast<Addr>(run) *
                                           hs.bytes(level);
                        if (!pt.isCoalescedAt(run_va, level))
                            fail("frame: frame " + std::to_string(f) +
                                 " run " + std::to_string(run) +
                                 " of level " + std::to_string(level) +
                                 " marked promoted but the page-table "
                                 "bit is clear");
                        if (info.coalesced)
                            continue;
                        for (unsigned s = run * run_slots;
                             s < (run + 1) * run_slots; ++s) {
                            if (!info.used[s] || info.pinned[s] ||
                                info.slotVa.empty() ||
                                info.slotVa[s] !=
                                    chunk_va +
                                        static_cast<Addr>(s) *
                                            kBasePageSize) {
                                fail("frame: frame " +
                                     std::to_string(f) +
                                     " promoted run " +
                                     std::to_string(run) +
                                     " of level " +
                                     std::to_string(level) +
                                     " breaks run contiguity at slot " +
                                     std::to_string(s));
                                break;
                            }
                        }
                    }
                }
            }
        }
        if (!info.coalesced)
            continue;
        if (info.mixed)
            fail("frame: coalesced frame " + std::to_string(f) +
                 " mixes owners");
        if (info.pinnedCount != 0)
            fail("frame: coalesced frame " + std::to_string(f) +
                 " holds pinned alien pages");
        if (info.usedCount == 0) {
            fail("frame: coalesced frame " + std::to_string(f) +
                 " holds no pages at all (must have been splintered)");
            continue;
        }
        if (info.slotVa.empty()) {
            fail("frame: coalesced frame " + std::to_string(f) +
                 " has no slotVa bookkeeping");
            continue;
        }
        // Every used slot must sit at its contiguity-conserving position:
        // slotVa[s] == chunk + s*4KB for one common large-aligned chunk.
        Addr chunk_va = kInvalidAddr;
        bool contiguous = true;
        for (unsigned s = 0; s < kBasePagesPerLargePage; ++s) {
            if (!info.used[s])
                continue;
            const Addr va = info.slotVa[s];
            const Addr base = va - s * kBasePageSize;
            if (va == kInvalidAddr ||
                (chunk_va != kInvalidAddr && base != chunk_va)) {
                fail("frame: coalesced frame " + std::to_string(f) +
                     " slot " + std::to_string(s) +
                     " breaks virtual contiguity");
                contiguous = false;
                break;
            }
            chunk_va = base;
        }
        if (!contiguous)
            continue;
        if (!isLargePageAligned(chunk_va)) {
            fail("frame: coalesced frame " + std::to_string(f) +
                 " chunk base " + hex(chunk_va) + " not large-page aligned");
            continue;
        }
        if (!info.fullyPopulated()) {
            // A fragmented frame may stay coalesced only as Mosaic's
            // emergency failsafe (paper §4.4): partially released while
            // occupancy stayed above CAC's threshold, parked on the
            // emergency list (the coalescedHoleBytes bloat).
            const bool parked =
                mosaicState_ != nullptr &&
                std::find(mosaicState_->emergencyFrames.begin(),
                          mosaicState_->emergencyFrames.end(),
                          static_cast<std::uint32_t>(f)) !=
                    mosaicState_->emergencyFrames.end();
            if (!parked)
                fail("frame: coalesced frame " + std::to_string(f) +
                     " fragmented (" + std::to_string(info.usedCount) +
                     " used) outside the emergency failsafe");
        }
        const auto pt_it = tables_.find(info.owner);
        if (pt_it == tables_.end()) {
            fail("frame: coalesced frame " + std::to_string(f) +
                 " owned by unobserved app " + std::to_string(info.owner));
            continue;
        }
        if (!pt_it->second->isCoalesced(chunk_va))
            fail("frame: frame " + std::to_string(f) +
                 " marked coalesced but the page table's large bit for " +
                 hex(chunk_va) + " is clear");
    }

    // The other direction: every shadow-coalesced region must sit on a
    // coalesced frame.
    for (const auto &[app, sh] : shadow_) {
        for (const std::uint64_t lvpn : sh.coalesced) {
            // Any mapped page of the region locates the frame (the first
            // pages may be holes in an emergency-parked frame).
            const auto first = sh.pages.lower_bound(lvpn << 9);
            if (first == sh.pages.end() ||
                (first->first >> 9) != lvpn) {
                fail("frame: app " + std::to_string(app) +
                     " coalesced region " + hex(lvpn << kLargePageBits) +
                     " has no mapped pages at all");
                continue;
            }
            const Addr pa =
                first->second.pa -
                (first->first - (lvpn << 9)) * kBasePageSize;
            const Addr pool_base = pool_->frameBase(0);
            if (pa < pool_base ||
                pa >= pool_base + pool_->numFrames() * kLargePageSize)
                continue;
            if (!pool_->frame(pool_->frameIndex(pa)).coalesced)
                fail("frame: app " + std::to_string(app) + " region " +
                     hex(lvpn << kLargePageBits) +
                     " coalesced in the page table but frame " +
                     std::to_string(pool_->frameIndex(pa)) +
                     " is not marked coalesced");
        }

        // Every shadow-promoted run must be reflected in its frame's
        // run mask (the pool/page-table agreement, per level).
        const PageSizeHierarchy &hs = appSizes(app);
        for (unsigned m = 0; m < sh.mid.size(); ++m) {
            const unsigned level = m + 1;
            for (const std::uint64_t vpn : sh.mid[m]) {
                const std::uint64_t first_base =
                    vpn << (hs.bits(level) - hs.bits(0));
                const auto first = sh.pages.find(first_base);
                if (first == sh.pages.end()) {
                    fail("frame: app " + std::to_string(app) +
                         " promoted level-" + std::to_string(level) +
                         " run " + hex(vpn << hs.bits(level)) +
                         " has no mapped first page");
                    continue;
                }
                const Addr pa = first->second.pa;
                const Addr pool_base = pool_->frameBase(0);
                if (pa < pool_base ||
                    pa >= pool_base +
                              pool_->numFrames() * kLargePageSize)
                    continue;
                const std::size_t f = pool_->frameIndex(pa);
                const unsigned run = static_cast<unsigned>(
                    (pa - pool_->frameBase(f)) / hs.bytes(level));
                if (((pool_->frame(f).midRuns[m] >> run) & 1) == 0)
                    fail("frame: app " + std::to_string(app) +
                         " level-" + std::to_string(level) + " run " +
                         hex(vpn << hs.bits(level)) +
                         " coalesced in the page table but frame " +
                         std::to_string(f) + " run mask bit " +
                         std::to_string(run) + " is clear");
            }
        }
    }
}

void
InvariantChecker::verifyMosaicState()
{
    if (mosaicState_ == nullptr)
        return;
    const MosaicState &st = *mosaicState_;

    // Soft-guarantee audit: owner mixing is only legal through the three
    // audited failsafe sites, each of which reports here.
    if (st.stats.softGuaranteeViolations != audited_)
        fail("mosaic: stats count " +
             std::to_string(st.stats.softGuaranteeViolations) +
             " soft-guarantee violations but " + std::to_string(audited_) +
             " came through audited sites");

    std::set<std::uint32_t> free_set;
    for (const std::uint32_t f : st.freeFrames) {
        if (!free_set.insert(f).second)
            fail("mosaic: frame " + std::to_string(f) +
                 " appears twice on the free list");
        const FrameInfo &info = st.pool.frame(f);
        if (!info.empty() || info.coalesced)
            fail("mosaic: non-empty frame " + std::to_string(f) +
                 " on the free list");
        if (info.owner != kInvalidAppId)
            fail("mosaic: free frame " + std::to_string(f) +
                 " retains owner " + std::to_string(info.owner));
        if (st.frameChunkVa[f] != kInvalidAddr)
            fail("mosaic: free frame " + std::to_string(f) +
                 " retains chunk reservation " + hex(st.frameChunkVa[f]));
    }

    // frameChunkVa <-> per-app chunkFrames coherence.
    for (const auto &[app, app_state] : st.apps) {
        for (const auto &[lvpn, f] : app_state.chunkFrames) {
            if (st.frameChunkVa[f] !=
                static_cast<Addr>(lvpn << kLargePageBits))
                fail("mosaic: app " + std::to_string(app) + " chunk " +
                     hex(lvpn << kLargePageBits) + " claims frame " +
                     std::to_string(f) + " whose frameChunkVa is " +
                     hex(st.frameChunkVa[f]));
        }
    }
    for (std::size_t f = 0; f < st.pool.numFrames(); ++f) {
        const Addr chunk_va = st.frameChunkVa[f];
        if (chunk_va == kInvalidAddr)
            continue;
        const AppId owner = st.pool.frame(f).owner;
        const auto app_it = st.apps.find(owner);
        if (app_it == st.apps.end()) {
            fail("mosaic: reserved frame " + std::to_string(f) +
                 " has no registered owner");
            continue;
        }
        const auto cf =
            app_it->second.chunkFrames.find(largePageNumber(chunk_va));
        if (cf == app_it->second.chunkFrames.end() ||
            cf->second != static_cast<std::uint32_t>(f))
            fail("mosaic: frame " + std::to_string(f) + " reserved for " +
                 hex(chunk_va) + " but app " + std::to_string(owner) +
                 " does not map that chunk to it");
    }
}

void
InvariantChecker::verifyTlbCoherence()
{
    if (translation_ == nullptr)
        return;

    // Every size level, one contract. A base entry still present
    // anywhere must agree with the current page table if the page is
    // still mapped (remaps without a shootdown are exactly what this
    // catches; unmapped pages may keep dangling entries because the fill
    // path re-translates). A coalesced-level entry over a run that is
    // still coalesced must point at the same frame; once splintered, it
    // must not outlive any still-mapped page of the run (the level
    // shootdown is mandatory).
    for (unsigned level = 0; level < tlb_.size(); ++level) {
        auto &entries = tlb_[level];
        for (auto it = entries.begin(); it != entries.end();) {
            const AppId app = static_cast<AppId>(it->first >> 44);
            const std::uint64_t vpn = it->first & ((1ull << 44) - 1);
            if (!anyTlb([&](const Tlb &tlb) {
                    return tlb.contains(level, app, vpn);
                })) {
                it = entries.erase(it);  // silently evicted; forget it
                continue;
            }
            const auto pt_it = tables_.find(app);
            if (pt_it != tables_.end()) {
                const PageTable &pt = *pt_it->second;
                const PageSizeHierarchy &hs = pt.sizes();
                const Addr va = vpn << hs.bits(level);
                if (level == 0 || pt.isCoalescedAt(va, level)) {
                    const Translation t = pt.translate(va);
                    if (t.valid &&
                        hs.pageBase(t.physAddr, level) != it->second)
                        fail("tlb: stale " +
                             (level == 0 ? std::string("base")
                                         : "level-" + std::to_string(level)) +
                             " entry for app " + std::to_string(app) +
                             " va " + hex(va) + " (cached " +
                             hex(it->second) + ", table now " +
                             hex(hs.pageBase(t.physAddr, level)) +
                             ") survived a remap without shootdown");
                } else {
                    const auto pages =
                        static_cast<unsigned>(hs.basePagesPer(level));
                    bool any_mapped = false;
                    for (unsigned s = 0; s < pages && !any_mapped; ++s)
                        any_mapped = pt.isMapped(va + s * kBasePageSize);
                    if (any_mapped)
                        fail("tlb: level-" + std::to_string(level) +
                             " entry for app " + std::to_string(app) +
                             " run " + hex(va) +
                             " survived a splinter without shootdown");
                }
            }
            ++it;
        }
    }

    // CoLT group entries: a surviving group must still translate to the
    // contiguous base it was filled with (exact-invalidation contract).
    for (auto it = tlbColt_.begin(); it != tlbColt_.end();) {
        const AppId app = static_cast<AppId>(it->first >> 44);
        const std::uint64_t gvpn = it->first & ((1ull << 44) - 1);
        const unsigned span = translation_->l2Tlb().coltSpanPagesLog2();
        const std::uint64_t base_vpn = gvpn << span;
        if (!anyTlb([&](const Tlb &tlb) {
                return tlb.containsColtGroup(app, base_vpn);
            })) {
            it = tlbColt_.erase(it);
            continue;
        }
        const auto pt_it = tables_.find(app);
        if (pt_it != tables_.end()) {
            const PageTable &pt = *pt_it->second;
            const Addr va = base_vpn << kBasePageBits;
            const Addr group_base = pt.contiguousGroupBase(va, span);
            if (group_base != it->second)
                fail("tlb: stale CoLT entry for app " + std::to_string(app) +
                     " group " + hex(va) + " (cached " + hex(it->second) +
                     ", table group base now " + hex(group_base) +
                     ") survived a remap without shootdown");
        }
        ++it;
    }
}

}  // namespace mosaic
