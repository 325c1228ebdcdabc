/**
 * @file
 * Streaming multiprocessor model with SIMT lockstep and GTO scheduling.
 *
 * Each SM issues at most one warp instruction per cycle. The warp
 * scheduler is greedy-then-oldest (GTO [96], the paper's configuration):
 * it keeps issuing from the last warp until that warp stalls, then picks
 * the oldest ready warp. A bitset of eligible warps (neither retired nor
 * waiting on memory) bounds both that pick and the wake-up search to the
 * warps that could issue. A memory instruction translates each distinct
 * page it touches through the TranslationService (far-faulting through
 * the DemandPager when a page is not resident) and then accesses the
 * data cache hierarchy for every coalesced line; the warp is eligible
 * again only when all of it completes (SIMT lockstep).
 */

#ifndef MOSAIC_GPU_SM_H
#define MOSAIC_GPU_SM_H

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "gpu/warp.h"
#include "iobus/demand_paging.h"
#include "vm/page_table.h"
#include "vm/translation.h"

namespace mosaic {

/** Warp scheduling policies. */
enum class WarpSchedPolicy : std::uint8_t {
    Gto,         ///< greedy-then-oldest (default, as in the paper)
    RoundRobin,  ///< loose round-robin over ready warps
};

/** Per-SM configuration. */
struct SmConfig
{
    unsigned warpsPerSm = 32;
    WarpSchedPolicy scheduler = WarpSchedPolicy::Gto;
    /** Abort threshold for repeated faults on one access (bug guard). */
    unsigned maxFaultRetries = 16;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** Per-SM statistics. */
    struct Stats
    {
        std::uint64_t instructions = 0;
        std::uint64_t memInstructions = 0;
        std::uint64_t farFaultStalls = 0;
        Cycles finishedAt = 0;
    };

    /**
     * @param onAllWarpsDone invoked once when the last warp retires
     */
    Sm(EventQueue &events, SmId id, PageTable &pageTable,
       TranslationService &translation, CacheHierarchy &caches,
       DemandPager *pager, const SmConfig &config,
       std::function<void()> onAllWarpsDone);

    /** Adds one warp to the SM (call before start()). */
    void addWarp(std::unique_ptr<WarpStream> stream);

    /** Begins execution at @p when. */
    void start(Cycles when);

    /** Prevents issue until @p until (CAC's whole-GPU stall). */
    void stallUntil(Cycles until);

    /**
     * @name Checkpoint quiesce + serde (DESIGN.md §14)
     * pause() stops the SM from issuing (in-flight memory operations
     * still complete and unblock their warps, but no new instruction
     * issues and no issue event stays scheduled), letting the engine
     * drain to a quiescent point. serialize() then captures the warp
     * contexts; resume(when) re-arms issue at the quiesce cycle —
     * identically whether the simulation continues in-process or was
     * just restored from the checkpoint bytes.
     */
    ///@{
    void pause() { paused_ = true; }

    void
    resume(Cycles when)
    {
        paused_ = false;
        if (started_ && liveWarps_ > 0)
            scheduleIssue(when);
    }

    void serialize(ckpt::Archive &ar);
    ///@}

    /** True when every warp has retired. */
    bool done() const { return liveWarps_ == 0 && started_; }

    /** SM identifier. */
    SmId id() const { return id_; }

    /** Statistics. */
    const Stats &stats() const { return stats_; }

  private:
    struct WarpCtx
    {
        std::unique_ptr<WarpStream> stream;
        Cycles readyAt = 0;
        bool done = false;
        std::uint64_t age = 0; ///< issue-order tiebreak for GTO
    };

    void scheduleIssue(Cycles when);
    void issueTick();
    int pickWarp() const;
    void setEligible(unsigned warpIdx, bool on);

    bool
    eligible(unsigned warpIdx) const
    {
        return (eligible_[warpIdx / 64] >> (warpIdx % 64)) & 1;
    }

    /** Calls @p f(warpIdx) for every eligible warp, in ascending index. */
    template <typename F>
    void
    forEachEligible(F &&f) const
    {
        for (std::size_t w = 0; w < eligible_.size(); ++w) {
            for (std::uint64_t bits = eligible_[w]; bits != 0;
                 bits &= bits - 1)
                f(static_cast<unsigned>(w * 64 + std::countr_zero(bits)));
        }
    }
    void executeMemory(unsigned warpIdx, const WarpInstr &instr);
    void translatePage(unsigned warpIdx, Addr pageVa, unsigned retries,
                       std::function<void(const Translation &)> onDone);
    void warpMemPartDone(unsigned warpIdx);
    void retireWarp(unsigned warpIdx);

    EventQueue &events_;
    SmId id_;
    PageTable &pageTable_;
    TranslationService &translation_;
    CacheHierarchy &caches_;
    DemandPager *pager_;
    SmConfig config_;
    std::function<void()> onAllWarpsDone_;

    std::vector<WarpCtx> warps_;
    /** Bit i set: warp i is neither done nor waiting on memory. */
    std::vector<std::uint64_t> eligible_;
    std::vector<unsigned> pendingParts_;  ///< outstanding mem ops per warp
    unsigned liveWarps_ = 0;
    int lastWarp_ = -1;
    unsigned rrCursor_ = 0;
    bool issueScheduled_ = false;
    bool started_ = false;
    bool paused_ = false;  ///< checkpoint quiesce: no new issue events
    Cycles stalledUntil_ = 0;
    Cycles nextIssueAllowed_ = 0;
    std::uint64_t ageCounter_ = 0;
    Stats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_GPU_SM_H
