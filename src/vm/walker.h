/**
 * @file
 * Highly-threaded page-table walker shared by all SMs.
 *
 * Matches the GPU-MMU baseline (paper §3.1, Fig. 2): up to 64 concurrent
 * walks; each walk performs one dependent memory access per page-table
 * level, served by the shared L2 cache / DRAM. On a coalesced region the
 * walk reads the L3 PTE (large bit set) plus the first L4 PTE, from which
 * it extracts the large-page frame number (paper §4.3, Fig. 7b). The
 * result's `level` names the size level the walk resolved to, which is
 * the TLB array the translation service fills. An optional page-walk
 * cache can short-circuit upper-level accesses; the baseline disables
 * it in favor of a larger shared L2 TLB.
 *
 * Hot-path layout (DESIGN.md §11): walk state -- including the PTE path
 * and current depth -- lives in pooled Walk records, so every per-level
 * continuation captures only {walker, walk*} (16 bytes, always inline
 * in SimCallback) instead of a shared_ptr plus the path array. A walk
 * record is recycled the moment its walk finishes.
 */

#ifndef MOSAIC_VM_WALKER_H
#define MOSAIC_VM_WALKER_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/set_assoc_cache.h"
#include "common/inline_function.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "trace/tracer.h"
#include "vm/page_table.h"

namespace mosaic {

/** Walker capacity and options. */
struct WalkerConfig
{
    unsigned maxConcurrentWalks = 64;
    bool usePageWalkCache = false;  ///< cache upper-level PTE lines
    std::size_t pwcEntries = 64;
    Cycles pwcLatencyCycles = 1;
    /**
     * When true (default), PTE reads go straight to DRAM. At the paper's
     * working-set scale the page tables far exceed the 2MB L2 cache, so
     * PT lines rarely survive there; the scaled-down synthetic workloads
     * would otherwise cache the whole page table and make walks
     * unrealistically cheap. Set false to route walks through the L2
     * cache (the literal Fig. 2 path, appropriate for full-size runs).
     */
    bool pteInDram = true;
};

/** The shared multi-walk page-table walker. */
class PageTableWalker
{
  public:
    /** Walk-completion continuation. 48 inline bytes cover the service's
     *  {this, sm, table, va, key} capture without a heap fallback. */
    using WalkCallback = InlineFunction<void(const Translation &), 48>;

    /** Walker statistics. */
    struct Stats
    {
        std::uint64_t walks = 0;
        std::uint64_t queued = 0;       ///< walks that waited for a slot
        std::uint64_t faults = 0;       ///< walks ending at an unmapped page
        std::uint64_t largeResults = 0; ///< walks resolving to a large page
        std::uint64_t pwcHits = 0;
        std::uint64_t pwcMisses = 0;
        Histogram latency{64, 128};     ///< cycles per completed walk
    };

    /**
     * @param metrics when non-null, counters register under
     *                "vm.walker.*" at construction (DESIGN.md §8).
     * @param tracer when non-null, each walk records a nested async
     *               span per page-table level (walk-latency
     *               attribution); null costs one branch per walk.
     */
    PageTableWalker(EventQueue &events, CacheHierarchy &memory,
                    const WalkerConfig &config,
                    StatsRegistry *metrics = nullptr,
                    Tracer *tracer = nullptr);

    /**
     * Starts (or queues) a walk of @p va through @p pageTable.
     * @p onDone receives the final translation; an invalid translation
     * means a page fault (the page is not resident).
     */
    void requestWalk(const PageTable &pageTable, Addr va,
                     WalkCallback onDone);

    /** True when a page-walk cache is attached. */
    bool hasPageWalkCache() const { return pwc_ != nullptr; }

    /**
     * Drops the cached PTE line holding the coalesced bit of size level
     * @p level >= 1 (the classic L3 entry for the default pair's 2MB
     * level) covering @p vaBase: a splinter rewrites that PTE, and a
     * hardware shootdown would invalidate the stale line. No-op without
     * a PWC. Timing-fidelity only: walk results always read the live
     * table.
     */
    void invalidatePwcForSplinter(const PageTable &pageTable, Addr vaBase,
                                  unsigned level);

    /** Number of walks currently executing. */
    unsigned activeWalks() const { return active_; }

    /** Number of walks waiting for a free walker slot. */
    std::size_t queuedWalks() const { return queue_.size(); }

    /** Statistics. */
    const Stats &stats() const { return stats_; }

    /**
     * Checkpoint hook (DESIGN.md §14). A quiesce point drains all
     * in-flight walks (asserted), so only the statistics and the PWC
     * contents need to cross a checkpoint; the walk pool and free list
     * are payload-only and rebuild lazily.
     */
    void serialize(ckpt::Archive &ar);

  private:
    /** One pooled walk record; per-level continuations point at it. */
    struct Walk
    {
        const PageTable *pageTable = nullptr;
        Addr va = 0;
        WalkCallback onDone;
        Cycles startedAt = 0;
        std::uint64_t traceId = 0;  ///< walk flow id (0: not traced)
        Cycles levelStartedAt = 0;  ///< current PTE read issue time
        bool wasQueued = false;
        bool coalesced = false;
        unsigned depth = 0;
        unsigned numLevels = PageTable::kLevels;
        std::array<Addr, PageTable::kMaxLevels> path{};
    };

    Walk *acquireWalk();
    void releaseWalk(Walk *walk);
    void startWalk(Walk *walk);
    void step(Walk *walk);
    void advanceAfterRead(Walk *walk);
    void finish(Walk *walk, bool faulted);

    EventQueue &events_;
    CacheHierarchy &memory_;
    WalkerConfig config_;
    Tracer *tracer_;
    unsigned active_ = 0;
    std::deque<Walk *> queue_;
    std::vector<std::unique_ptr<Walk>> pool_;
    std::vector<Walk *> freeWalks_;
    std::unique_ptr<SetAssocCache> pwc_;
    Stats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_VM_WALKER_H
