/**
 * @file
 * Sharded event engine: deterministic intra-simulation parallelism.
 *
 * One simulation is partitioned into `numSms` SM lanes plus one hub
 * lane (DESIGN.md §12). Each lane owns a private EventQueue. Time
 * advances in fixed conservative windows of kWindowCycles:
 *
 *   1. SM phase    — the SM lanes with an event due run [T, T+W)
 *                    concurrently on a worker pool; the idle lanes only
 *                    have their clocks advanced. Cross-lane sends are
 *                    appended to per-lane outboxes, never delivered
 *                    directly.
 *   2. barrier     — hooks run (deferred checker notifications, epoch
 *                    invariant sweeps).
 *   3. exchange    — SM->hub messages merge into the hub queue in
 *                    canonical (cycle, source lane, source sequence)
 *                    order, which is independent of worker scheduling.
 *   4. hub phase   — the hub lane runs [T, T+W) serially (L2 TLB,
 *                    walker, L2 cache, DRAM, PCIe, pager, managers).
 *   5. delivery    — hub->SM messages are scheduled onto their target
 *                    lanes: timed sends at their natural cycle (always
 *                    >= T+W because every cross-boundary latency is
 *                    >= W), deferred calls at exactly T+W.
 *   6. advance     — T jumps to max(T+W, floor(earliest pending event
 *                    / W) * W), so idle stretches (PCIe transfers,
 *                    drained queues) cost nothing. The jump is a pure
 *                    function of queue state, hence deterministic.
 *
 * With hub sub-lanes enabled (enableHubSubLanes; ROADMAP 6(b)) the hub
 * phase splits in two: the *control* sub-lane (the original hub queue:
 * L2 TLB, walker, managers, pager) still runs serially in step 4, and a
 * new parallel *sub phase* follows step 5 in which one sub-lane per
 * DRAM channel runs its channel plus the congruent L2 cache banks on
 * the worker pool. Sub-lane emissions merge canonically in (cycle,
 * subLane, sequence) order, exactly like the SM exchange, so results
 * remain byte-identical for every worker count. See hub_sublanes.h for
 * the delivery-semantics contract.
 *
 * The window size W equals the minimum latency of any lane-crossing
 * interaction (the SM<->L2 interconnect hop, 8 cycles; the L2 TLB probe
 * path is strictly longer), so an event produced in window k can never
 * need to run in window k on another lane: one-window lookahead is
 * always safe.
 *
 * Determinism: every per-lane computation depends only on that lane's
 * queue, and every cross-lane transfer is ordered canonically at a
 * barrier. The worker count N therefore changes wall-clock time only;
 * results for N in {1, 2, 4, 8, ...} are byte-identical.
 *
 * Parallel phases: lane i of a phase always runs on thread i % N (the
 * coordinator is thread 0), so a lane's queue and component state stay
 * in one core's cache from epoch to epoch. Only *busy* lanes -- those
 * with an event due in the window -- are run; the coordinator advances
 * the others' clocks itself. A phase whose busy lanes all belong to one
 * thread (every phase at N = 1, and any phase with fewer than two busy
 * lanes) runs on the coordinator, and the worker threads start at the
 * first phase that needs them.
 *
 * Thread-safety: a parallel phase hands lanes to the workers through
 * two atomics. The coordinator writes the phase (window limit, lane
 * set, busy-lane list) and then bumps the epoch generation with a
 * release; a worker acquires the new generation before it reads the
 * phase. Each worker counts the pending count down with a release once
 * its lanes are done, and the coordinator acquires zero before it
 * touches any lane again. Every lane access is therefore ordered by a
 * release/acquire pair, and the engine is clean under TSan. Both sides
 * spin for a short budget before parking in std::atomic::wait, so a
 * handoff usually costs no kernel wake-up; a pool larger than the
 * host's core count parks at once instead of spinning. The control
 * phase and all barrier hooks run on the coordinating thread while the
 * workers wait, so hub code may touch SM-side state directly (TLB
 * shootdowns, stallAll) without data races.
 */

#ifndef MOSAIC_ENGINE_SHARDED_ENGINE_H
#define MOSAIC_ENGINE_SHARDED_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "engine/engine_profile.h"
#include "engine/event_queue.h"
#include "engine/hub_sublanes.h"
#include "engine/lane_router.h"

namespace mosaic {

class StatsRegistry;
class TraceMux;

/** Epoch-synchronized multi-lane event engine. */
class ShardedEngine final : public LaneRouter, public HubSubLanes
{
  public:
    /**
     * Conservative lookahead window, in cycles. Must not exceed the
     * minimum cross-lane latency (the 8-cycle SM<->L2 interconnect
     * hop; see CacheHierarchy::Config::interconnectCycles and the L1
     * TLB miss latency in TlbConfig). runSimulation refuses a sharded
     * config whose interconnect hop is shorter.
     */
    static constexpr Cycles kWindowCycles = 8;

    /**
     * @param numSms   number of SM lanes (lane i serves SM id i).
     * @param workers  worker threads to use, including the calling
     *                 thread; clamped to [1, numSms]. Does not affect
     *                 results, only wall-clock time. No thread starts
     *                 until a phase has busy lanes for two threads.
     */
    ShardedEngine(unsigned numSms, unsigned workers);
    ~ShardedEngine() override;

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    // LaneRouter interface -------------------------------------------------
    EventQueue &laneQueue(SmId sm) override { return lanes_[sm].queue; }
    EventQueue &hubQueue() override { return hub_; }
    void toHub(SmId srcSm, Cycles when, SimCallback fn) override;
    void callHub(SmId srcSm, SimCallback fn) override;
    void toSm(SmId sm, Cycles when, SimCallback fn) override;
    void callSm(SmId sm, SimCallback fn) override;

    /**
     * Splits the hub phase into @p count per-DRAM-channel sub-lanes
     * plus the control sub-lane (the original hub queue). Must be
     * called before the first epoch and before registerMetrics; the
     * runner passes the DRAM channel count so DramModel/CacheHierarchy
     * attachSubLanes() find one sub-lane per channel.
     */
    void enableHubSubLanes(unsigned count);

    // HubSubLanes interface ------------------------------------------------
    unsigned subLaneCount() const override
    {
        return static_cast<unsigned>(subs_.size());
    }
    EventQueue &subQueue(unsigned sub) override { return subs_[sub].queue; }
    void smToSub(SmId srcSm, unsigned sub, Cycles when,
                 SimCallback fn) override;
    void controlToSub(unsigned sub, Cycles when, SimCallback fn) override;
    void subToControl(unsigned srcSub, Cycles when, SimCallback fn) override;
    void subToSub(unsigned srcSub, unsigned dstSub, Cycles when,
                  SimCallback fn) override;
    void subToSm(unsigned srcSub, SmId sm, Cycles when,
                 SimCallback fn) override;

    /** Number of SM lanes (excluding the hub lane). */
    unsigned numLanes() const { return static_cast<unsigned>(lanes_.size()); }

    /** Configured pool size, including the coordinating thread. */
    unsigned workers() const { return workers_; }

    /** Start cycle of the current window. */
    Cycles windowStart() const { return windowStart_; }

    /** Number of epochs (windows) executed so far. */
    std::uint64_t epochs() const { return epochs_; }

    /**
     * Registers @p hook to run at every epoch barrier, on the
     * coordinating thread, after the SM phase and before the exchange.
     * Hooks run in registration order.
     */
    void addBarrierHook(std::function<void()> hook);

    /**
     * Registers the engine self-profiler under `engine.shard.*`
     * (DESIGN.md §12). Only *simulated* figures are bound -- per-lane
     * event counts, hub traffic, occupancy, window jumps -- never the
     * worker count or any wall-clock time, so snapshots stay
     * byte-identical for every worker count N >= 1.
     */
    void registerMetrics(StatsRegistry &registry);

    /**
     * Attaches the per-lane trace rings. The engine emits one batch of
     * `engine.shard.*` counter-track samples (per-lane window
     * occupancy, hub queue depth) every
     * TraceConfig::shardSampleEpochs epochs, on the coordinating
     * thread at the epoch barrier -- timestamps and values are pure
     * functions of the simulation, keeping the exported trace
     * worker-count independent. @p mux must outlive the engine.
     */
    void setTrace(TraceMux *mux);

    /**
     * Installs a hook called on the coordinating thread at the same
     * epoch-sampling cadence as setTrace's counter batches (workers
     * parked, @p windowEnd = the epoch's simulated end). The runner
     * uses it to sample curated counter tracks into the trace without
     * scheduling tick events on the hub queue -- keeping the
     * self-profiler's hub figures identical with tracing on and off.
     */
    void setEpochSampleHook(std::function<void(Cycles windowEnd)> hook);

    /** End-of-run self-profile (simulated + wall-clock figures). */
    EngineShardProfile profile() const;

    /**
     * Runs epochs until @p finished returns true, the current window
     * start reaches @p maxCycles, or no events remain anywhere (the
     * sharded analogue of the serial engine's drained-queue exit).
     */
    void run(Cycles maxCycles, const std::function<bool()> &finished);

    /** Runs epochs until every lane and the hub are empty (tests/fuzz). */
    void drain();

    /**
     * Checkpoint hook (DESIGN.md §14): the engine's window position
     * and the self-profiler's *simulated* figures (the exact set
     * registerMetrics binds — the wall-clock figures are host noise and
     * deliberately excluded, so the bytes stay worker-count
     * independent). Every lane queue's clock rides along; a quiesce
     * point leaves all queues drained, so no event payloads cross the
     * checkpoint. Loading requires enableHubSubLanes to already have run
     * with the same count.
     */
    void serialize(ckpt::Archive &ar);

  private:
    /** Outbox target tag for the control sub-lane / hub queue. */
    static constexpr std::int32_t kTargetControl = -1;

    /** A cross-lane message captured in a per-SM-lane outbox. */
    struct OutMsg
    {
        Cycles when;
        /** kTargetControl = the hub queue; else a hub sub-lane index. */
        std::int32_t target;
        SimCallback fn;
    };

    /** Hub -> SM message captured during the hub phase. */
    struct HubMsg
    {
        SmId sm;
        bool deferred;  ///< true: run at next window start, ignore when
        Cycles when;
        SimCallback fn;
    };

    /**
     * A message captured in a sub-lane outbox during the sub phase.
     * target: kTargetControl = the hub queue; [0, subs) = that
     * sub-lane; subs + i = SM lane i.
     */
    struct SubMsg
    {
        Cycles when;
        std::int32_t target;
        SimCallback fn;
    };

    /** One SM lane. Cache-line aligned: lanes are touched in parallel. */
    struct alignas(64) Lane
    {
        EventQueue queue;
        std::vector<OutMsg> outbox;
        // Self-profiler accounting: outMsgs by the coordinator at the
        // merge, busyWindows/lastExecuted by the thread that ran the
        // lane, lastSampled by the coordinator at a trace sample.
        std::uint64_t outMsgs = 0;       ///< SM->hub messages sent
        std::uint64_t busyWindows = 0;   ///< windows with dispatches
        std::uint64_t lastExecuted = 0;  ///< executed() at last barrier
        std::uint64_t lastSampled = 0;   ///< executed() at last trace sample
    };

    /** One hub sub-lane (a DRAM channel + its congruent L2 banks). */
    struct alignas(64) SubLane
    {
        EventQueue queue;
        std::vector<SubMsg> outbox;
        // Self-profiler accounting, as in Lane.
        std::uint64_t outMsgs = 0;       ///< cross-lane messages sent
        std::uint64_t busyWindows = 0;   ///< windows with dispatches
        std::uint64_t lastExecuted = 0;  ///< executed() at last barrier
        std::uint64_t lastSampled = 0;   ///< executed() at last trace sample
    };

    /** Merge key for the canonical cross-lane exchange order. */
    struct MergeKey
    {
        Cycles when;
        std::uint32_t lane;
        std::uint32_t idx;
    };

    void runEpoch();
    void parallelPhase(Cycles limit, bool subPhase);
    void runLanes(unsigned worker, unsigned stride);
    void startWorkers();
    void workerLoop(unsigned worker, unsigned seenGen);
    bool anyWork() const;
    void sampleTrace(Cycles windowEnd);
    void exchangeSubOutboxes(Cycles windowEnd);

    std::vector<Lane> lanes_;
    std::vector<SubLane> subs_;  ///< empty until enableHubSubLanes()
    EventQueue hub_;
    std::vector<HubMsg> hubOutbox_;
    std::vector<MergeKey> mergeScratch_;
    std::vector<std::function<void()>> barrierHooks_;
    Cycles windowStart_ = 0;
    std::uint64_t epochs_ = 0;

    // Self-profiler: simulated figures (deterministic; coordinator-only
    // writes at epoch barriers). See engine/engine_profile.h.
    std::uint64_t windowJumps_ = 0;
    std::uint64_t jumpedCycles_ = 0;
    std::uint64_t hubInMsgs_ = 0;
    std::uint64_t hubToSmTimed_ = 0;
    std::uint64_t hubToSmDeferred_ = 0;
    std::uint64_t hubBusyWindows_ = 0;
    std::uint64_t hubLastExecuted_ = 0;
    std::uint64_t hubLastSampled_ = 0;
    Histogram hubQueueDepth_{16, 64};    ///< hub pending at hub-phase start
    Histogram hubWindowEvents_{16, 64};  ///< hub dispatches per busy window

    // Self-profiler: host figures (excluded from the StatsRegistry).
    // workerBusyNs_[0] is the coordinator; slot i + 1 is threads_[i],
    // written by that thread before its release decrement of pending_
    // and read by the coordinator only after it acquires pending_ == 0
    // (TSan-clean).
    double wallSmPhaseNs_ = 0.0;
    double wallHubNs_ = 0.0;
    double wallSubPhaseNs_ = 0.0;
    double wallExchangeNs_ = 0.0;
    std::vector<double> workerBusyNs_;
    std::uint64_t pooledPhases_ = 0;
    std::uint64_t inlinePhases_ = 0;

    TraceMux *trace_ = nullptr;
    std::function<void(Cycles)> epochSampleHook_;

    // Worker pool (see the file comment, "Thread-safety"). The phase
    // fields are written by the coordinator before it bumps epochGen_
    // and read by the workers after they acquire the new generation.
    unsigned workers_;   ///< configured pool size, incl. the coordinator
    bool spin_;          ///< pool fits the host: spin before parking
    std::vector<std::uint32_t> busyLanes_;  ///< this phase's lanes
    Cycles laneLimit_ = 0;
    bool phaseIsSub_ = false;
    bool stop_ = false;
    alignas(64) std::atomic<unsigned> epochGen_{0};  ///< -> workers
    alignas(64) std::atomic<unsigned> pending_{0};   ///< -> coordinator
    std::vector<std::thread> threads_;  ///< started lazily
};

}  // namespace mosaic

#endif  // MOSAIC_ENGINE_SHARDED_ENGINE_H
