/**
 * @file
 * GDDR5-style DRAM model with per-channel FR-FCFS scheduling.
 *
 * Matches the paper's Table 1 memory partition configuration: 6 channels,
 * 8 banks per rank, FR-FCFS scheduling, burst length 8. Banks keep an open
 * row; row hits are served faster than row conflicts; each channel's data
 * bus serializes bursts while banks operate in parallel. The model also
 * implements page-granularity bulk copy, both through the normal data bus
 * (64 bits at a time) and via in-DRAM mechanisms (RowClone/LISA) used by
 * Mosaic's CAC-BC compaction variant.
 *
 * FR-FCFS never scans the queue. A channel keeps its queued requests in
 * arrival order and the oldest schedulerWindow of them on one
 * arrival-ordered list per bank; the rest join the window in arrival
 * order as window requests leave. A dispatch reads each ready bank's
 * list head and oldest open-row entry (DESIGN.md §11).
 *
 * Under the sharded engine the channels are *independently runnable*:
 * attachSubLanes() points each channel at its hub sub-lane's event queue
 * (DESIGN.md §12), and all per-channel state — queue, banks, bus, stats
 * slice — is then touched only by that sub-lane (or by the control phase,
 * which never runs concurrently with sub phases). Serially, every channel
 * points at the one shared queue and behavior is byte-identical to the
 * pre-sub-lane model.
 */

#ifndef MOSAIC_DRAM_DRAM_H
#define MOSAIC_DRAM_DRAM_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/inline_function.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "engine/hub_sublanes.h"
#include "trace/tracer.h"

namespace mosaic {

/**
 * Granularity at which physical addresses interleave across channels.
 *
 * Line maximizes bandwidth (consecutive cache lines hit different
 * channels) and is the default, matching the paper's Table 1 memory
 * system. Page/Frame keep a whole 4KB page / 2MB frame in one channel,
 * which is what makes CAC-BC's in-DRAM copy (RowClone/LISA: src and dst
 * rows must share a channel) actually attainable for migrations.
 */
enum class ChannelInterleave
{
    Line,
    Page,
    Frame,
};

/** Timing and geometry parameters of the DRAM model. */
struct DramConfig
{
    unsigned channels = 6;          ///< independent memory partitions
    ChannelInterleave channelInterleave = ChannelInterleave::Line;
    unsigned banksPerChannel = 8;   ///< banks per rank (one rank modeled)
    std::uint64_t rowBytes = 2048;  ///< row buffer size per bank
    Cycles rowHitCycles = 60;       ///< access latency on a row-buffer hit
    Cycles rowMissCycles = 160;     ///< latency on a row conflict
    Cycles bankBusyHitCycles = 8;   ///< bank issue interval on a row hit
    Cycles bankBusyMissCycles = 48; ///< bank occupancy (tRC) on a conflict
    Cycles burstCycles = 2;         ///< channel data-bus occupancy per line
    std::uint64_t capacityBytes = 3ull * 1024 * 1024 * 1024;
    Cycles bulkCopyInDramCycles = 82;     ///< RowClone/LISA 4KB copy (~80ns)
    Cycles bulkCopyViaBusCyclesPerLine = 8;  ///< read+write per line, no BC
    /** FR-FCFS only considers the oldest this-many queued requests. */
    std::size_t schedulerWindow = 48;
};

/** One queued line access. */
struct DramRequest
{
    Cycles issued = 0;
    /** Bank/row decoded once at enqueue (decode divides by runtime
     *  config values); the row also rides on the bank's window list. */
    std::uint64_t row = 0;
    unsigned bank = 0;
    /** Lane the completion callback must run on: kOriginControl for the
     *  control/serial lane, else the issuing sub-lane's index. */
    std::int32_t origin = -1;
    /** Dispatched: the body only waits for every older request to
     *  leave before it is popped. */
    bool dispatched = false;
    SimCallback onDone;
};

/**
 * The DRAM subsystem: all channels, banks, and the FR-FCFS scheduler.
 *
 * Accesses are line-granularity (kCacheLineSize). Completion callbacks run
 * on the issuer's event queue when the access finishes.
 */
class DramModel
{
  public:
    /** Completion origin tag for control-lane (or serial) issuers. */
    static constexpr std::int32_t kOriginControl = -1;

    /** Aggregate DRAM statistics (merged over all channels). */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t bulkCopies = 0;
        std::uint64_t bulkCopyCycles = 0;
        Histogram latency{32, 64};
    };

    /**
     * @param metrics when non-null, counters register under "dram.*"
     *                at construction (DESIGN.md §8).
     * @param tracer when non-null, bulk copies record spans (regular
     *               line accesses are far too hot to trace).
     */
    DramModel(EventQueue &events, const DramConfig &config,
              StatsRegistry *metrics = nullptr, Tracer *tracer = nullptr);

    /**
     * Attaches the hub sub-lane router: channel c's queue, banks, bus,
     * and stats slice become sub-lane c's property. Must be called
     * before the first access, with subLaneCount() == channels.
     */
    void attachSubLanes(HubSubLanes *subs);

    /**
     * Issues a line access to @p addr from the control (or serial)
     * lane; @p onDone runs back on that lane at completion.
     */
    void access(Addr addr, bool isWrite, SimCallback onDone);

    /**
     * Issues a line access from hub sub-lane @p srcSub (an L2 cache
     * bank); @p onDone runs back on @p srcSub at completion. Accesses
     * whose channel lives on another sub-lane are handed over through
     * the router and arrive at the next window boundary.
     */
    void accessFromSub(unsigned srcSub, Addr addr, bool isWrite,
                       SimCallback onDone);

    /**
     * Copies one base page from @p src to @p dst. Control-lane only:
     * a cross-channel copy occupies *both* channels' buses, which no
     * single sub-lane may touch alone; the control phase never runs
     * concurrently with sub phases, so it can.
     *
     * With @p inDramCopy the copy uses RowClone/LISA-style in-DRAM
     * operations (fast, fixed latency). Otherwise the copy streams through
     * the channel data bus, occupying it for the full duration. Cross-
     * channel copies always use the bus path (in-DRAM copy only works
     * within a channel), mirroring CAC's same-channel migration policy.
     */
    void bulkCopyPage(Addr src, Addr dst, bool inDramCopy,
                      SimCallback onDone);

    /** Memory channel servicing @p addr (used by CAC's placement policy). */
    unsigned channelOf(Addr addr) const;

    /**
     * Cycles a bulkCopyPage(src, dst, inDramCopy) would take, without
     * performing it. The single source of truth for the copy-path choice:
     * CAC charges migration stalls through this, so the cost model can
     * never disagree with the timing model about in-DRAM eligibility.
     */
    Cycles bulkCopyCycles(Addr src, Addr dst, bool inDramCopy) const;

    /** DRAM statistics, merged over all channel slices. */
    Stats stats() const;

    /** Configuration used to build this model. */
    const DramConfig &config() const { return config_; }

    /** Number of requests currently queued or in flight. */
    std::size_t inFlight() const;

    /**
     * Checkpoint hook (DESIGN.md §14). Captures per-channel bank state
     * (open rows, ready times), bus and dispatch timing, and all
     * counters. Request queues must be empty — a queued DramRequest
     * holds a completion continuation that cannot be serialized, so the
     * quiesce protocol drains them first (asserted).
     */
    void serialize(ckpt::Archive &ar);

  private:
    /** A window request on its bank's list: its arrival rank within
     *  the channel (FR-FCFS age, and where its body sits) and row. */
    struct WindowEntry
    {
        std::uint64_t rank;
        std::uint64_t row;
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Cycles readyAt = 0;
        /** This bank's window requests, oldest first. */
        std::vector<WindowEntry> window;
    };

    /** Counters written only by the channel's owning lane. */
    struct ChannelStats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        Histogram latency{32, 64};
    };

    /** Cache-line aligned: adjacent channels run on different threads. */
    struct alignas(64) Channel
    {
        std::vector<Bank> banks;
        /** Request bodies in arrival order: rank r sits at r - headRank.
         *  A dispatch marks its body and moves nothing; dispatched
         *  bodies are popped once every older request has left, so the
         *  deque spans the queued requests and frees chunks as it goes. */
        std::deque<DramRequest> bodies;
        std::uint64_t headRank = 0;
        /** Ranks below windowEnd have joined the window; the rest wait
         *  beyond it. */
        std::uint64_t windowEnd = 0;
        Cycles busFreeAt = 0;
        /** Retry bookkeeping: a dispatch event is pending at dispatchAt.
         *  Tracking the time (not just a flag) lets an *earlier* retry
         *  request reschedule instead of being dropped. */
        bool dispatchScheduled = false;
        Cycles dispatchAt = 0;
        /** The lane this channel runs on: the shared/serial queue, or
         *  sub-lane channelIdx's queue once attachSubLanes() ran. */
        EventQueue *lane = nullptr;
        ChannelStats stats;
        /** Queued requests: window plus overflow. */
        std::size_t inFlight = 0;
    };

    struct Decoded
    {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };

    Decoded decode(Addr addr) const;
    void enqueue(const Decoded &d, bool isWrite, std::int32_t origin,
                 Cycles issued, SimCallback onDone);
    static void enterWindow(Channel &channel);
    void tryDispatch(unsigned channelIdx);
    void scheduleDispatch(unsigned channelIdx, Cycles when);
    void completeAt(unsigned channelIdx, Cycles done, std::int32_t origin,
                    SimCallback fn);
    Histogram mergedLatency() const;

    EventQueue &events_;
    DramConfig config_;
    Tracer *tracer_;
    HubSubLanes *subs_ = nullptr;
    std::vector<Channel> channels_;
    /** Bulk copies are control-lane only; their counters need no slices. */
    std::uint64_t bulkCopies_ = 0;
    std::uint64_t bulkCopyCycles_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_DRAM_DRAM_H
