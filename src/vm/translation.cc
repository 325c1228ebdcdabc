#include "vm/translation.h"

#include <algorithm>
#include <string>

#include "common/log.h"
#include "trace/trace_mux.h"

namespace mosaic {

namespace {

/** MSHR key combining address space and base-page number. */
std::uint64_t
missKey(AppId app, Addr va, unsigned baseBits)
{
    return (static_cast<std::uint64_t>(app) << 44) |
           pageNumberAt(va, baseBits);
}

/**
 * Refuses an entry array of @p entries at @p ways (0 = fully
 * associative) that no set-associative geometry holds exactly.
 * @p level and @p array name its config path, e.g. "translation.l2"
 * and "base"; the message is built only on failure.
 */
void
checkTlbArray(const char *level, const char *array, std::size_t entries,
              std::size_t ways)
{
    if (entries != 0 && (ways == 0 || entries % ways == 0))
        return;
    const std::string name = std::string(level) + "." + array;
    if (entries == 0)
        MOSAIC_FATAL("config " + name +
                     "Entries: 0 (a TLB array needs at least one entry)");
    MOSAIC_FATAL("config " + name + "Entries: " + std::to_string(entries) +
                 " is not a multiple of " + name + "Ways (" +
                 std::to_string(ways) + ")");
}

void
checkTlbGeometry(const char *level, const TlbConfig &c)
{
    checkTlbArray(level, "base", c.baseEntries, c.baseWays);
    checkTlbArray(level, "large", c.largeEntries, c.largeWays);
    if (c.numSizeLevels > 2)
        checkTlbArray(level, "mid", c.midEntries, c.midWays);
    if (c.coltEnabled)
        checkTlbArray(level, "colt", c.coltEntries, c.coltWays);
}

/** Propagates the hierarchy and CoLT switches into both TLB levels and
 *  refuses geometries their entry arrays cannot hold. */
TranslationConfig
normalized(TranslationConfig config)
{
    config.l1.numSizeLevels = config.sizes.numLevels();
    config.l2.numSizeLevels = config.sizes.numLevels();
    config.l1.coltEnabled = config.colt;
    config.l2.coltEnabled = config.colt;
    checkTlbGeometry("translation.l1", config.l1);
    checkTlbGeometry("translation.l2", config.l2);
    return config;
}

/**
 * TLB-miss flow id, derived deterministically from (sm, miss key) so
 * the fill sites can close the span without storing the id: one SM has
 * at most one outstanding miss per key (the MSHR merges the rest).
 */
std::uint64_t
missFlowId(SmId sm, std::uint64_t key)
{
    return traceId(TraceIdSpace::TlbMiss,
                   (static_cast<std::uint64_t>(sm) << 48) ^ key);
}

}  // namespace

TranslationService::TranslationService(EventQueue &events,
                                       PageTableWalker &walker,
                                       unsigned numSms,
                                       const TranslationConfig &config,
                                       StatsRegistry *metrics, Tracer *tracer,
                                       LaneRouter *router, TraceMux *traceMux)
    : events_(events), walker_(walker), config_(normalized(config)),
      tracer_(tracer), router_(router), traceMux_(traceMux), l2_(config_.l2),
      slices_(numSms)
{
    l1_.reserve(numSms);
    mshrs_.reserve(numSms);
    for (unsigned i = 0; i < numSms; ++i) {
        l1_.emplace_back(config_.l1);
        mshrs_.emplace_back(0);
    }
    if (metrics != nullptr) {
        // Service counters are split across SM slices (so concurrent
        // lanes never share a cache line) and summed on demand.
        metrics->bindCounterFn("vm.translation.requests",
                               [this] { return stats().requests; });
        metrics->bindCounterFn("vm.translation.l1Hits",
                               [this] { return stats().l1Hits; });
        metrics->bindCounterFn("vm.translation.l2Hits",
                               [this] { return stats().l2Hits; });
        metrics->bindCounterFn("vm.translation.walksIssued",
                               [this] { return stats().walksIssued; });
        metrics->bindCounterFn("vm.translation.mshrMerges",
                               [this] { return stats().mshrMerges; });
        metrics->bindCounterFn("vm.translation.faults",
                               [this] { return stats().faults; });
        // The shared L2 TLB has a stable address; the per-SM L1s are
        // summed through l1StatsTotal() so the paths stay size-agnostic.
        // The L1 family reports the base and large slots only.
        l2_.registerMetrics(*metrics, "vm.tlb.l2");
        for (unsigned s = 0; s < 2; ++s) {
            const std::string slot =
                std::string("vm.tlb.l1.") + Tlb::slotName(s);
            metrics->bindCounterFn(slot + ".accesses", [this, s] {
                return l1StatsTotal().slotAccesses[s];
            });
            metrics->bindCounterFn(slot + ".hits", [this, s] {
                return l1StatsTotal().slotHits[s];
            });
        }
        // Per-app breakdown: address spaces appear as they translate, so
        // this is a dynamic labeled family (ascending ids; slots that
        // exist only because a higher id forced a resize have zero
        // requests and are skipped, matching the old map's key set).
        metrics->addProvider([this](StatsRegistry::Sink &sink) {
            std::size_t apps = perApp_.size();
            for (const SmSlice &slice : slices_)
                apps = std::max(apps, slice.app.size());
            for (std::size_t id = 0; id < apps; ++id) {
                const AppStats s = appStats(static_cast<AppId>(id));
                if (s.requests == 0)
                    continue;
                const MetricLabels labels = {
                    {"app", std::to_string(unsigned(id))}};
                sink.counter("vm.translation.app.requests", labels,
                             s.requests);
                sink.counter("vm.translation.app.l1Hits", labels, s.l1Hits);
                sink.counter("vm.translation.app.l2Hits", labels, s.l2Hits);
                sink.counter("vm.translation.app.walks", labels, s.walks);
            }
        });
    }
}

Tlb::Stats
TranslationService::l1StatsTotal() const
{
    Tlb::Stats total;
    for (const Tlb &tlb : l1_) {
        for (unsigned s = 0; s < Tlb::kMaxSlots; ++s) {
            total.slotAccesses[s] += tlb.stats().slotAccesses[s];
            total.slotHits[s] += tlb.stats().slotHits[s];
        }
    }
    return total;
}

TranslationService::Stats
TranslationService::stats() const
{
    Stats total = stats_;  // hub-side l2Hits / walksIssued
    for (const SmSlice &slice : slices_) {
        total.requests += slice.stats.requests;
        total.l1Hits += slice.stats.l1Hits;
        total.mshrMerges += slice.stats.mshrMerges;
        total.faults += slice.stats.faults;
    }
    return total;
}

TranslationService::AppStats
TranslationService::appStats(AppId app) const
{
    AppStats total;
    if (app < perApp_.size()) {
        total.l2Hits = perApp_[app].stats.l2Hits;
        total.walks = perApp_[app].stats.walks;
    }
    for (const SmSlice &slice : slices_) {
        if (app < slice.app.size()) {
            total.requests += slice.app[app].requests;
            total.l1Hits += slice.app[app].l1Hits;
        }
    }
    return total;
}

void
TranslationService::registerApp(AppId app, const PageTable &table)
{
    perAppSlot(app).table = &table;
    for (SmSlice &slice : slices_)
        if (app >= slice.app.size())
            slice.app.resize(static_cast<std::size_t>(app) + 1);
}

void
TranslationService::flushDeferredCheckHooks()
{
    for (SmSlice &slice : slices_) {
        for (const DeferredHook &hook : slice.pendingHooks) {
            if (checker_ == nullptr)
                continue;
            if (hook.kind == kColtKind)
                checker_->onTlbFillColt(hook.app, hook.vpn);
            else
                checker_->onTlbFill(hook.app, hook.vpn, hook.kind);
        }
        slice.pendingHooks.clear();
    }
}

void
TranslationService::translate(SmId sm, const PageTable &pageTable, Addr va,
                              TranslateCallback onDone)
{
    // Runs on the requesting SM's lane under the sharded engine, so
    // everything it touches is slice-local (slices_[sm], l1_[sm],
    // mshrs_[sm]); the hub-owned perApp_ table pointer is learned here
    // only in serial mode (sharded assemblies pre-register apps).
    SmSlice &slice = slices_[sm];
    const AppId app = pageTable.appId();
    if (app >= slice.app.size())
        slice.app.resize(static_cast<std::size_t>(app) + 1);
    ++slice.stats.requests;
    AppStats &app_stats = slice.app[app];
    ++app_stats.requests;
    if (router_ == nullptr)
        perAppSlot(app).table = &pageTable;  // used by shootdowns
    EventQueue &lane = router_ != nullptr ? router_->laneQueue(sm) : events_;

    if (config_.idealTlb) {
        // Every request hits in the L1 TLB; unbacked pages still fault.
        ++slice.stats.l1Hits;
        ++app_stats.l1Hits;
        lane.scheduleAfter(config_.l1.latencyCycles,
                           [this, sm, &pageTable, va,
                            cb = std::move(onDone)] {
            const Translation t = pageTable.translate(va);
            if (!t.valid)
                ++slices_[sm].stats.faults;
            cb(t);
        });
        return;
    }

    // L1 probe: largest page-size entries first (a hit there skips the
    // smaller probes), base-page entries last, then the CoLT coalesced
    // groups when enabled. For the default pair this is exactly the
    // paper's large-then-base order.
    const bool l1_hit = probeTlb(l1_[sm], app, va) >= 0;
    if (l1_hit) {
        ++slice.stats.l1Hits;
        ++app_stats.l1Hits;
        lane.scheduleAfter(config_.l1.latencyCycles,
                           [this, sm, &pageTable, va,
                            cb = std::move(onDone)] {
            const Translation t = pageTable.translate(va);
            if (!t.valid)
                ++slices_[sm].stats.faults;
            cb(t);
        });
        return;
    }

    // Register in the per-SM MSHR so concurrent misses to one page merge
    // into a single L2/walk sequence.
    const std::uint64_t key = missKey(app, va, config_.sizes.bits(0));
    const auto outcome = mshrs_[sm].registerMiss(
        key, [this, sm, &pageTable, va, cb = std::move(onDone)] {
            const Translation t = pageTable.translate(va);
            if (!t.valid)
                ++slices_[sm].stats.faults;
            cb(t);
        });
    if (outcome != MshrFile::Outcome::NewMiss) {
        ++slice.stats.mshrMerges;
        return;
    }
    if (tracer_ != nullptr && tracer_->on(kTraceVm)) {
        // Lane-side: under the sharded engine the span lives in the
        // requesting SM's ring at its lane clock; serially the lane IS
        // events_ and laneTracer() IS tracer_, byte-identical.
        laneTracer(sm)->asyncBegin(kTraceVm, TraceTrack::Vm, "tlbMiss",
                                   missFlowId(sm, key), lane.now(),
                                   {"sm", static_cast<std::uint64_t>(sm)},
                                   {"vpn", basePageNumber(va)});
    }

    if (router_ != nullptr) {
        // The L2 TLB lives on the hub lane; the probe crosses at its
        // natural cycle (the hub runs this window after the SM phase).
        router_->toHub(sm, lane.now() + config_.l1.latencyCycles,
                       [this, sm, &pageTable, va] {
            missToL2(sm, pageTable, va);
        });
        return;
    }
    events_.scheduleAfter(config_.l1.latencyCycles,
                          [this, sm, &pageTable, va] {
        missToL2(sm, pageTable, va);
    });
}

void
TranslationService::missToL2(SmId sm, const PageTable &pageTable, Addr va)
{
    // Port contention: the shared L2 TLB accepts config_.l2.ports
    // lookups per cycle; excess lookups queue.
    const Cycles now = events_.now();
    if (l2NextIssueAt_ < now) {
        l2NextIssueAt_ = now;
        l2IssuesThisCycle_ = 0;
    }
    ++l2IssuesThisCycle_;
    if (l2IssuesThisCycle_ >= config_.l2.ports) {
        ++l2NextIssueAt_;
        l2IssuesThisCycle_ = 0;
    }
    const Cycles queue_delay = l2NextIssueAt_ - now;

    events_.scheduleAfter(queue_delay + config_.l2.latencyCycles,
                          [this, sm, &pageTable, va] {
        const AppId app = pageTable.appId();
        const std::uint64_t key = missKey(app, va, config_.sizes.bits(0));

        const int l2_hit = probeTlb(l2_, app, va);
        if (l2_hit >= 0) {
            const std::uint8_t kind = static_cast<std::uint8_t>(l2_hit);
            ++stats_.l2Hits;
            ++perAppSlot(app).stats.l2Hits;
            if (router_ != nullptr) {
                // The L1 fill and the MSHR wakeups are SM-side: hand
                // them back to the lane (delivered next window).
                router_->callSm(sm, [this, sm, &pageTable, va, key,
                                     kind] {
                    fillL1FromHub(sm, pageTable, va, kind, key,
                                  /*servedBy=*/2);
                });
                return;
            }
            applyL1Fill(sm, app, va, kind);
            if (tracer_ != nullptr && tracer_->on(kTraceVm)) {
                // servedBy: 2 == shared L2 TLB, 3 == page-table walk.
                tracer_->asyncEnd(kTraceVm, TraceTrack::Vm, "tlbMiss",
                                  missFlowId(sm, key), events_.now(),
                                  {"servedBy", 2});
            }
            mshrs_[sm].fill(key);
            return;
        }

        ++stats_.walksIssued;
        ++perAppSlot(app).stats.walks;
        walker_.requestWalk(pageTable, va,
                            [this, sm, &pageTable, va,
                             key](const Translation &result) {
            fillFromWalk(sm, pageTable, va, result);
            if (router_ == nullptr && tracer_ != nullptr &&
                tracer_->on(kTraceVm)) {
                // Serial: close the span here. Sharded: the span lives
                // in the SM's lane ring, so the lane-side completion
                // below closes it at its lane clock instead.
                tracer_->asyncEnd(kTraceVm, TraceTrack::Vm, "tlbMiss",
                                  missFlowId(sm, key), events_.now(),
                                  {"servedBy", 3},
                                  {"faulted", result.valid ? 0u : 1u});
            }
            if (router_ != nullptr) {
                // SM-side completion (L1 fill + MSHR wakeups) crosses
                // back to the lane; the hub-side L2 fill above already
                // happened at the walk's natural cycle.
                if (result.valid) {
                    const std::uint8_t kind = result.level;
                    router_->callSm(sm, [this, sm, &pageTable, va, key,
                                         kind] {
                        fillL1FromHub(sm, pageTable, va, kind, key,
                                      /*servedBy=*/3);
                    });
                } else {
                    router_->callSm(sm, [this, sm, key] {
                        if (tracer_ != nullptr && tracer_->on(kTraceVm)) {
                            laneTracer(sm)->asyncEnd(
                                kTraceVm, TraceTrack::Vm, "tlbMiss",
                                missFlowId(sm, key),
                                router_->laneQueue(sm).now(),
                                {"servedBy", 3}, {"faulted", 1});
                        }
                        mshrs_[sm].fill(key);
                    });
                }
                return;
            }
            mshrs_[sm].fill(key);
        });
    });
}

int
TranslationService::probeTlb(Tlb &tlb, AppId app, Addr va)
{
    const PageSizeHierarchy &hs = config_.sizes;
    for (unsigned level = hs.numLevels(); level-- > 0;) {
        if (tlb.lookup(level, app, pageNumberAt(va, hs.bits(level))))
            return static_cast<int>(level);
    }
    if (tlb.hasColt() && tlb.lookupColt(app, pageNumberAt(va, hs.bits(0))))
        return kColtKind;
    return -1;
}

void
TranslationService::applyL1Fill(SmId sm, AppId app, Addr va,
                                std::uint8_t kind)
{
    const PageSizeHierarchy &hs = config_.sizes;
    if (kind == kColtKind) {
        const std::uint64_t base_vpn = pageNumberAt(va, hs.bits(0));
        l1_[sm].fillColt(app, base_vpn);
        if (checker_ != nullptr)
            checker_->onTlbFillColt(
                app, base_vpn >> config_.l1.coltSpanPagesLog2);
        return;
    }
    const std::uint64_t vpn = pageNumberAt(va, hs.bits(kind));
    l1_[sm].fill(kind, app, vpn);
    if (checker_ != nullptr)
        checker_->onTlbFill(app, vpn, kind);
}

void
TranslationService::fillFromWalk(SmId sm, const PageTable &pageTable,
                                 Addr va, const Translation &result)
{
    if (!result.valid)
        return;  // faulting walks install nothing
    // Coalesced pages fill only their own level's arrays so they never
    // compete with uncoalesced pages for base-page TLB capacity.
    const AppId app = pageTable.appId();
    const unsigned level = result.level;
    const std::uint64_t vpn = pageNumberAt(va, config_.sizes.bits(level));
    l2_.fill(level, app, vpn);
    if (router_ == nullptr)
        l1_[sm].fill(level, app, vpn);
    if (checker_ != nullptr)
        checker_->onTlbFill(app, vpn, level);
    // CoLT earns reach beyond one base page when the covering group is
    // already physically contiguous, before any frame-level coalescing
    // completes.
    if (level == 0 && config_.colt &&
        pageTable.contiguousGroupBase(va, config_.l2.coltSpanPagesLog2) !=
            kInvalidAddr) {
        l2_.fillColt(app, vpn);
        if (router_ == nullptr)
            l1_[sm].fillColt(app, vpn);
        if (checker_ != nullptr)
            checker_->onTlbFillColt(app,
                                    vpn >> config_.l2.coltSpanPagesLog2);
    }
}

Tracer *
TranslationService::laneTracer(SmId sm)
{
    return traceMux_ != nullptr ? traceMux_->lane(sm) : tracer_;
}

void
TranslationService::fillL1FromHub(SmId sm, const PageTable &pageTable,
                                  Addr va, std::uint8_t kind,
                                  std::uint64_t key, std::uint8_t servedBy)
{
    // Delivered one window after the hub produced the fill, so the
    // region may have been splintered or the page unmapped in between.
    // The TLBs are tag-only (translations are always re-read from the
    // live page table), so skipping a stale fill is timing-only; the
    // revalidation keeps the checker's shadow exact.
    const AppId app = pageTable.appId();
    const PageSizeHierarchy &hs = config_.sizes;
    // A base entry needs a live mapping, a coalesced-level entry its
    // live coalesced bit, and a CoLT entry -- its own fill, or the one a
    // base fill brings along -- a still-contiguous group.
    if (kind != kColtKind &&
        (kind == 0 ? pageTable.isMapped(va)
                   : pageTable.isCoalescedAt(va, kind))) {
        const std::uint64_t vpn = pageNumberAt(va, hs.bits(kind));
        l1_[sm].fill(kind, app, vpn);
        if (checker_ != nullptr)
            slices_[sm].pendingHooks.push_back(DeferredHook{kind, app, vpn});
    }
    if ((kind == kColtKind || (kind == 0 && config_.colt)) &&
        pageTable.contiguousGroupBase(va, config_.l1.coltSpanPagesLog2) !=
            kInvalidAddr) {
        const std::uint64_t base_vpn = pageNumberAt(va, hs.bits(0));
        l1_[sm].fillColt(app, base_vpn);
        if (checker_ != nullptr)
            slices_[sm].pendingHooks.push_back(DeferredHook{
                kColtKind, app, base_vpn >> config_.l1.coltSpanPagesLog2});
    }
    if (tracer_ != nullptr && tracer_->on(kTraceVm)) {
        // Close the miss span on the SM's lane ring at the lane clock
        // (fillL1FromHub only runs under the sharded engine, delivered
        // at the window edge). servedBy: 2 == L2 TLB, 3 == walk.
        laneTracer(sm)->asyncEnd(kTraceVm, TraceTrack::Vm, "tlbMiss",
                                 missFlowId(sm, key),
                                 router_->laneQueue(sm).now(),
                                 {"servedBy", servedBy});
    }
    mshrs_[sm].fill(key);
}

void
TranslationService::shootdownColtRange(AppId app, Addr vaBase,
                                       std::uint64_t bytes)
{
    if (!config_.colt)
        return;
    const PageSizeHierarchy &hs = config_.sizes;
    const std::uint64_t group_bytes = hs.bytes(0)
                                      << config_.l2.coltSpanPagesLog2;
    for (Addr va = hs.pageBase(vaBase, 0); va < vaBase + bytes;
         va += group_bytes) {
        const std::uint64_t base_vpn = pageNumberAt(va, hs.bits(0));
        for (Tlb &tlb : l1_)
            tlb.flushColtGroup(app, base_vpn);
        l2_.flushColtGroup(app, base_vpn);
        if (checker_ != nullptr)
            checker_->onTlbShootdownColt(
                app, base_vpn >> config_.l2.coltSpanPagesLog2);
    }
}

void
TranslationService::shootdown(AppId app, Addr vaBase, unsigned level)
{
    const PageSizeHierarchy &hs = config_.sizes;
    const std::uint64_t vpn = pageNumberAt(vaBase, hs.bits(level));
    for (Tlb &tlb : l1_)
        tlb.flush(level, app, vpn);
    l2_.flush(level, app, vpn);
    if (level == 0) {
        // Intermediate-level entries whose run contains this page go
        // too: a remap/unmap just broke the run's contiguity, and a
        // cached run translation would keep serving the old frame. (The
        // loop body is unreachable for the default two-size hierarchy.)
        for (unsigned mid = 1; mid + 1 < hs.numLevels(); ++mid) {
            const std::uint64_t mid_vpn = pageNumberAt(vaBase, hs.bits(mid));
            for (Tlb &tlb : l1_)
                tlb.flush(mid, app, mid_vpn);
            l2_.flush(mid, app, mid_vpn);
            if (checker_ != nullptr)
                checker_->onTlbShootdown(app, mid_vpn, mid);
        }
    } else if (walker_.hasPageWalkCache() && app < perApp_.size() &&
               perApp_[app].table != nullptr) {
        // A splinter also rewrites the PTE holding the level's coalesced
        // bit, so any page-walk cache must drop the stale upper-level
        // line (the TLB flush alone would let the next walk
        // short-circuit through old PTE bytes).
        walker_.invalidatePwcForSplinter(*perApp_[app].table, vaBase, level);
    }
    // A remapped base page breaks its covering CoLT group; a coalesce or
    // splinter rewrites the contiguity metadata of every group inside
    // the page.
    shootdownColtRange(app, vaBase, hs.bytes(level));
    if (checker_ != nullptr)
        checker_->onTlbShootdown(app, vpn, level);
}

void
TranslationService::serialize(ckpt::Archive &ar)
{
    for (Tlb &tlb : l1_)
        ar.io(tlb);
    ar.io(l2_);
    ar.io(l2NextIssueAt_);
    ar.io(l2IssuesThisCycle_);
    for (MshrFile &mshr : mshrs_)
        ar.io(mshr);
    ar.io(stats_);
    for (SmSlice &slice : slices_) {
        MOSAIC_ASSERT(ar.loading() || slice.pendingHooks.empty(),
                      "checkpointing with deferred checker hooks pending");
        ar.io(slice.stats);
        ar.io(slice.app, 1u << 20, "per-app stat slots");
    }
    // Keep table pointers learned via registerApp; only stats restore.
    const std::uint64_t apps =
        ar.size(perApp_.size(), 1u << 20, "per-app hub slots");
    if (apps > perApp_.size())
        perApp_.resize(static_cast<std::size_t>(apps));
    for (std::uint64_t i = 0; i < apps; ++i)
        ar.io(perApp_[static_cast<std::size_t>(i)].stats);
    if (!ar.loading() || !ar.ok() || checker_ == nullptr)
        return;

    // Reseed the checker's TLB shadow by replaying a fill notification
    // per restored entry. The checker re-derives each PA from the live
    // page tables (already restored), so the shadow matches exactly.
    const auto replay = [&](const Tlb &tlb) {
        for (unsigned level = 0; level < config_.sizes.numLevels(); ++level) {
            tlb.forEach(level, [&](AppId app, std::uint64_t vpn) {
                checker_->onTlbFill(app, vpn, level);
            });
        }
        tlb.forEachColtGroup([&](AppId app, std::uint64_t group_vpn) {
            checker_->onTlbFillColt(app, group_vpn);
        });
    };
    for (const Tlb &tlb : l1_)
        replay(tlb);
    replay(l2_);
}

}  // namespace mosaic
