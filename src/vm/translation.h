/**
 * @file
 * The full address-translation service: per-SM L1 TLBs, the shared L2
 * TLB, and the page-table walker, glued together with per-SM MSHRs.
 *
 * Lookup order per the paper (§4.3): probe large-page entries first, then
 * base-page entries -- for an N-level hierarchy, every size level from
 * the top down to the base; on an L1 miss the shared L2 TLB is probed
 * after its access latency (plus port contention); on an L2 miss the
 * walker runs. A translation fills the arrays of its own size level, so
 * coalesced translations never consume scarce base-page TLB entries.
 * Fills, checker notifications and shootdowns all name their array by
 * size level; the TLB maps it onto a storage slot (vm/tlb.h).
 */

#ifndef MOSAIC_VM_TRANSLATION_H
#define MOSAIC_VM_TRANSLATION_H

#include <cstdint>
#include <vector>

#include "cache/mshr.h"
#include "check/check_sink.h"
#include "common/inline_function.h"
#include "common/page_sizes.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "engine/lane_router.h"
#include "vm/page_table.h"
#include "vm/tlb.h"
#include "vm/walker.h"

namespace mosaic {

class TraceMux;

/** Translation-path configuration. */
struct TranslationConfig
{
    TlbConfig l1;  ///< per-SM level (defaults: 128 base / 16 large, 1cy)
    TlbConfig l2;  ///< shared level (defaults set in constructor arg)
    bool idealTlb = false;  ///< every request hits in the L1 TLB

    /** Page-size hierarchy the TLBs and fills follow (default: the
     *  classic 4KB/2MB pair). Intermediate levels get their own entry
     *  arrays sized by l1/l2 midEntries. */
    PageSizeHierarchy sizes;

    /** Enables the CoLT coalesced-entry arrays in both TLB levels. */
    bool colt = false;

    TranslationConfig()
    {
        l1.baseEntries = 128;
        l1.largeEntries = 16;
        l1.midEntries = 32;
        l1.latencyCycles = 1;
        l2.baseEntries = 512;
        l2.baseWays = 16;
        l2.largeEntries = 256;
        l2.largeWays = 0;
        l2.midEntries = 128;
        l2.latencyCycles = 10;
        l2.ports = 2;
    }
};

/** Shared translation machinery for the whole GPU. */
class TranslationService
{
  public:
    /** Translation-completion continuation. 56 inline bytes cover the
     *  SM's retry closure (this, warp, va, retries, a std::function)
     *  exactly; larger captures fall back to the heap, not UB. */
    using TranslateCallback = InlineFunction<void(const Translation &), 56>;

    /** Cross-level statistics (Fig. 13's inputs). */
    struct Stats
    {
        std::uint64_t requests = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t walksIssued = 0;
        std::uint64_t mshrMerges = 0;
        std::uint64_t faults = 0;

        void
        serialize(ckpt::Archive &ar)
        {
            ar.io(requests);
            ar.io(l1Hits);
            ar.io(l2Hits);
            ar.io(walksIssued);
            ar.io(mshrMerges);
            ar.io(faults);
        }
    };

    /** Per-address-space statistics (the paper's Fig. 10 analysis of
     *  TLB-sensitive vs memory-intensive co-runners needs these). */
    struct AppStats
    {
        std::uint64_t requests = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t walks = 0;

        void
        serialize(ckpt::Archive &ar)
        {
            ar.io(requests);
            ar.io(l1Hits);
            ar.io(l2Hits);
            ar.io(walks);
        }
    };

    /**
     * @param metrics when non-null, counters register at construction:
     *                service counters under "vm.translation.*", the
     *                shared L2 TLB under "vm.tlb.l2.*", the summed
     *                per-SM L1 TLBs under "vm.tlb.l1.*", and a dynamic
     *                per-app family "vm.translation.app.*{app=N}"
     *                (DESIGN.md §8).
     * @param tracer when non-null, every L1 miss records a TLB-miss
     *               span from registration to fill.
     * @param router when non-null, the service runs under the sharded
     *               engine (DESIGN.md §12): translate() executes on the
     *               requesting SM's lane, the L2 TLB + walker on the hub
     *               lane, and all lane-crossing completions go through
     *               the router. When null (the default), behavior is
     *               byte-identical to the classic serial engine.
     * @param traceMux when non-null alongside @p router, TLB-miss spans
     *               record into the requesting SM's *lane ring* (begin
     *               at translate(), end at the lane-side fill), so the
     *               sharded trace stays worker-count independent. A
     *               serial mux resolves every lane to the single ring,
     *               matching @p tracer byte for byte.
     */
    TranslationService(EventQueue &events, PageTableWalker &walker,
                       unsigned numSms, const TranslationConfig &config,
                       StatsRegistry *metrics = nullptr,
                       Tracer *tracer = nullptr,
                       LaneRouter *router = nullptr,
                       TraceMux *traceMux = nullptr);

    /**
     * Translates @p va for @p sm in address space @p pageTable.appId().
     * @p onDone receives the translation; invalid means a far-fault must
     * be taken by the caller before retrying.
     */
    void translate(SmId sm, const PageTable &pageTable, Addr va,
                   TranslateCallback onDone);

    /**
     * Pre-registers @p table as @p app's address space and sizes every
     * per-SM stat slice to cover it. The sharded assembly calls this for
     * all apps before the run so no per-app containers grow (and no
     * table pointer is written) from concurrent SM lanes; optional in
     * serial mode, where slots are still learned on first use.
     */
    void registerApp(AppId app, const PageTable &table);

    /**
     * Shoots down the size-level @p level entry for @p vaBase in every
     * TLB level: a base page on migration/unmap (0), a coalesced page
     * on splinter (the top level, §4.4, or a Trident intermediate run).
     * Level 0 also drops every intermediate-level entry whose run holds
     * the page; a level >= 1 also drops the walker's cached PTE line
     * holding its coalesced bit. With CoLT enabled, every coalesced
     * group entry inside the page goes too.
     */
    void shootdown(AppId app, Addr vaBase, unsigned level);

    /** Per-SM L1 TLB (exposed for tests and reporting). */
    const Tlb &l1Tlb(SmId sm) const { return l1_[sm]; }

    /** Shared L2 TLB. */
    const Tlb &l2Tlb() const { return l2_; }

    /** Number of per-SM L1 TLBs. */
    unsigned numSms() const { return static_cast<unsigned>(l1_.size()); }

    /** Attaches (or detaches, with nullptr) the invariant checker. */
    void setChecker(CheckSink *checker) { checker_ = checker; }

    /**
     * Replays checker notifications recorded on SM lanes (L1 fills from
     * L2 hits and walk completions) into the checker, in SM order. The
     * sharded assembly installs this as an epoch-barrier hook; a no-op
     * in serial mode, where hooks fire inline.
     */
    void flushDeferredCheckHooks();

    /** Aggregate L1 statistics summed over SMs. */
    Tlb::Stats l1StatsTotal() const;

    /** Service statistics, summed over the hub and every SM slice. */
    Stats stats() const;

    /** Statistics of one address space (zeros if it never translated). */
    AppStats appStats(AppId app) const;

    /** True when configured as an ideal TLB. */
    bool ideal() const { return config_.idealTlb; }

    /**
     * Checkpoint hook (DESIGN.md §14). Captures every TLB array
     * slot-exactly plus the L2 port-contention state and all statistics
     * slices. In-flight misses cannot exist at a quiesce point (the
     * MSHRs assert emptiness). Loading replays a CheckSink fill
     * notification for every restored TLB entry, so an attached checker
     * re-derives its TLB shadow from the restored page tables — set the
     * checker and load the page tables first.
     */
    void serialize(ckpt::Archive &ar);

  private:
    /**
     * Per-app slot: stats plus the app's page table, learned on first
     * translate(). AppIds are small and dense, so a vector indexed by id
     * replaces the unordered_map probe on every request; slots created
     * only by resize (requests == 0) are skipped when reporting. The
     * table pointer routes splinter shootdowns to the walker's PWC.
     */
    struct PerApp
    {
        AppStats stats;
        const PageTable *table = nullptr;
    };

    PerApp &
    perAppSlot(AppId app)
    {
        if (app >= perApp_.size())
            perApp_.resize(static_cast<std::size_t>(app) + 1);
        return perApp_[app];
    }

    /** Fill kind routed between the hub and the SM lanes: a size level
     *  fills that level's array, kColtKind fills a CoLT group entry. */
    static constexpr std::uint8_t kColtKind = 0xFF;

    /** Checker notification recorded on an SM lane, replayed at the
     *  next epoch barrier (serial mode never records any). */
    struct DeferredHook
    {
        std::uint8_t kind;  ///< size level, or kColtKind
        AppId app;
        std::uint64_t vpn;
    };

    /**
     * SM-side counters and buffers. Everything an SM lane increments
     * lives here, indexed by SmId, so concurrent lanes never share a
     * counter; totals are summed on demand. In serial mode the same
     * sites increment the same slices, so the sums are byte-identical.
     * Cache-line aligned against false sharing between lanes.
     */
    struct alignas(64) SmSlice
    {
        Stats stats;                 ///< requests/l1Hits/mshrMerges/faults
        std::vector<AppStats> app;   ///< requests/l1Hits per address space
        std::vector<DeferredHook> pendingHooks;
    };

    /** Probes @p tlb top size level down to base, then CoLT. Returns
     *  the hit's fill kind (see DeferredHook), or -1 on a full miss. */
    int probeTlb(Tlb &tlb, AppId app, Addr va);

    /** Serial-mode L1 fill of @p kind plus the inline checker hook. */
    void applyL1Fill(SmId sm, AppId app, Addr va, std::uint8_t kind);

    /** Flushes every CoLT group entry intersecting [vaBase,
     *  vaBase+bytes) from all TLB levels (no-op without CoLT). */
    void shootdownColtRange(AppId app, Addr vaBase, std::uint64_t bytes);

    void missToL2(SmId sm, const PageTable &pageTable, Addr va);
    void fillFromWalk(SmId sm, const PageTable &pageTable, Addr va,
                      const Translation &result);
    void fillL1FromHub(SmId sm, const PageTable &pageTable, Addr va,
                       std::uint8_t kind, std::uint64_t key,
                       std::uint8_t servedBy);

    /** The ring lane-side (SM-side) trace events record into. */
    Tracer *laneTracer(SmId sm);

    EventQueue &events_;
    PageTableWalker &walker_;
    TranslationConfig config_;
    Tracer *tracer_;
    LaneRouter *router_;
    TraceMux *traceMux_;
    std::vector<Tlb> l1_;
    Tlb l2_;
    Cycles l2NextIssueAt_ = 0;
    unsigned l2IssuesThisCycle_ = 0;
    std::vector<MshrFile> mshrs_;  ///< per-SM, keyed by (app, base vpn)
    CheckSink *checker_ = nullptr;
    Stats stats_;                  ///< hub-side: l2Hits, walksIssued
    std::vector<SmSlice> slices_;  ///< SM-side counters, indexed by SmId
    std::vector<PerApp> perApp_;   ///< indexed by AppId (hub-side)
};

}  // namespace mosaic

#endif  // MOSAIC_VM_TRANSLATION_H
