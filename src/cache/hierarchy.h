/**
 * @file
 * Two-level GPU cache hierarchy (per-SM L1s, shared banked L2, DRAM).
 *
 * Geometry follows the paper's Table 1: a 16KB 4-way L1 per SM with
 * 1-cycle latency, and a 2MB 16-way shared L2 split into 12 banks
 * (2 banks in each of the 6 memory partitions) with 10-cycle latency.
 * Misses allocate MSHRs so concurrent requests to one line merge. The
 * page-table walker injects its accesses at the L2 (walker data is shared
 * across SMs, so it bypasses private L1s, as in the GPU-MMU baseline).
 *
 * Under hub sub-lanes (attachSubLanes; DESIGN.md §12, ROADMAP 6(b))
 * each L2 bank belongs to the sub-lane of its congruent DRAM channel
 * (bank % subLaneCount): the bank's tags, MSHRs, issue port, and stats
 * slice are touched only from that sub-lane's phase (or the control
 * phase, which never runs concurrently with it). SM misses route
 * straight to the owning sub-lane; walker/runtime L2 probes hop from
 * the control lane to the bank's sub-lane and back.
 */

#ifndef MOSAIC_CACHE_HIERARCHY_H
#define MOSAIC_CACHE_HIERARCHY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/mshr.h"
#include "cache/set_assoc_cache.h"
#include "common/inline_function.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "dram/dram.h"
#include "engine/event_queue.h"
#include "engine/hub_sublanes.h"
#include "engine/lane_router.h"

namespace mosaic {

/** Cache hierarchy geometry and timing. */
struct CacheHierarchyConfig
{
    unsigned numSms = 30;

    std::uint64_t l1Bytes = 16 * 1024;
    std::size_t l1Ways = 4;
    Cycles l1LatencyCycles = 1;
    std::size_t l1MshrEntries = 64;

    std::uint64_t l2Bytes = 2 * 1024 * 1024;
    std::size_t l2Ways = 16;
    unsigned l2Banks = 12;
    Cycles l2LatencyCycles = 10;
    Cycles l2BankCycleTime = 1;  ///< pipelined issue interval per bank
    std::size_t l2MshrEntries = 256;

    Cycles interconnectCycles = 8;  ///< SM <-> L2 crossbar latency
};

/**
 * The full data-cache path from an SM to DRAM.
 *
 * All completion callbacks are scheduled on the shared EventQueue; none
 * run synchronously from access(), so callers may issue accesses from
 * within completion callbacks safely.
 */
class CacheHierarchy
{
  public:
    using Callback = SimCallback;

    /** Aggregate hit/miss statistics. */
    struct Stats
    {
        std::uint64_t l1Accesses = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t writebacks = 0;
    };

    /**
     * @param metrics when non-null, hit/miss counters register under
     *                "cache.*" at construction (DESIGN.md §8).
     * @param router  when non-null, the hierarchy runs under the sharded
     *                engine: access() executes on the requesting SM's
     *                lane (L1 tags + L1 MSHRs are lane-local) and every
     *                L1<->L2 interconnect hop crosses lanes through the
     *                router at its natural cycle. Null (the default)
     *                keeps the classic serial behavior byte-identical.
     */
    CacheHierarchy(EventQueue &events, DramModel &dram,
                   const CacheHierarchyConfig &config,
                   StatsRegistry *metrics = nullptr,
                   LaneRouter *router = nullptr);

    /**
     * Attaches the hub sub-lane router (requires a LaneRouter too):
     * every L2 bank migrates from the hub lane to sub-lane
     * bank % subLaneCount. Must be called before the first access.
     */
    void attachSubLanes(HubSubLanes *subs);

    /** SM data access: L1 -> L2 -> DRAM. */
    void access(SmId sm, Addr paddr, bool isWrite, Callback onDone);

    /** Walker/runtime access that starts at the shared L2. */
    void accessFromL2(Addr paddr, bool isWrite, Callback onDone);

    /** Uncached access that goes straight to DRAM (walker PTE reads). */
    void accessDram(Addr paddr, bool isWrite, Callback onDone);

    /** Statistics, summed over the shared side and every SM slice. */
    Stats stats() const;

    /** Configuration. */
    const CacheHierarchyConfig &config() const { return config_; }

    /**
     * Checkpoint hook (DESIGN.md §14). Captures every L1 and L2 bank tag
     * array, the per-bank issue ports, and all counters. The MSHRs
     * assert emptiness — a quiesce point has no in-flight misses to
     * serialize.
     */
    void serialize(ckpt::Archive &ar);

  private:
    /** Cache-line aligned: adjacent banks may run on different hub
     *  sub-lanes; the stats fields are this bank's slice, written only
     *  by its owning lane and summed in stats(). */
    struct alignas(64) L2Bank
    {
        std::unique_ptr<SetAssocCache> tags;
        MshrFile mshr;
        Cycles nextIssueAt = 0;
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        std::uint64_t writebacks = 0;  ///< dirty L2 victims

        explicit L2Bank(std::size_t mshrs) : mshr(mshrs) {}
    };

    /** SM-side counters, one slice per SM so concurrent lanes never
     *  share a cache line; totals are summed on demand. */
    struct alignas(64) SmStats
    {
        std::uint64_t l1Accesses = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t writebacks = 0;  ///< dirty L1 victims
    };

    std::uint64_t lineOf(Addr paddr) const { return paddr / kCacheLineSize; }
    unsigned bankOf(std::uint64_t line) const { return line % config_.l2Banks; }

    /** Hub sub-lane owning @p bank (only meaningful with subs_ set). */
    unsigned subOf(unsigned bank) const
    {
        return bank % subs_->subLaneCount();
    }

    /** Event queue bank @p bank's L2 pipeline runs on. */
    EventQueue &bankQueue(unsigned bank)
    {
        return subs_ != nullptr ? subs_->subQueue(subOf(bank)) : events_;
    }

    /**
     * Runs the L2 lookup for @p line and invokes @p onDone when the data
     * is available at the L2 (caller adds any interconnect latency).
     * With sub-lanes attached this must execute on the bank's sub-lane;
     * @p onDone then also runs there.
     */
    void accessL2Line(std::uint64_t line, bool isWrite, Callback onDone);

    /** Installs a filled line in @p sm's L1 and wakes merged waiters. */
    void installL1Fill(SmId sm, std::uint64_t line, bool isWrite);

    EventQueue &events_;
    DramModel &dram_;
    CacheHierarchyConfig config_;
    LaneRouter *router_;
    HubSubLanes *subs_ = nullptr;

    std::vector<SetAssocCache> l1Tags_;
    std::vector<MshrFile> l1Mshrs_;
    std::vector<L2Bank> l2Banks_;
    std::vector<SmStats> smStats_;
};

}  // namespace mosaic

#endif  // MOSAIC_CACHE_HIERARCHY_H
