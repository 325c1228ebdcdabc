#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/log.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "trace/trace_mux.h"

namespace mosaic {

namespace {

/** Wall-clock nanoseconds between two steady_clock points. */
double
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from).count();
}

/**
 * How long a handoff wait polls before it parks. A phase's lane work
 * and the serial steps between two phases take a few microseconds, so
 * a waiter that is still spinning when its turn comes skips the two
 * kernel round trips of a park and a wake-up.
 */
constexpr std::chrono::microseconds kSpinBudget{50};
/** Polls with a pause before the waiter starts yielding its core. */
constexpr unsigned kPauseSpins = 32;

/** Spin-loop hint: lets the sibling hyperthread run while polling. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Blocks until @p word no longer holds @p old and returns the value it
 * saw, with acquire ordering. With @p spin it polls for kSpinBudget
 * first -- kPauseSpins pauses, then yields -- and parks in
 * std::atomic::wait only once the budget is spent.
 */
unsigned
awaitChange(const std::atomic<unsigned> &word, unsigned old, bool spin)
{
    if (spin) {
        const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
        for (unsigned i = 0;; ++i) {
            const unsigned v = word.load(std::memory_order_acquire);
            if (v != old)
                return v;
            if (i < kPauseSpins) {
                cpuRelax();
                continue;
            }
            if (std::chrono::steady_clock::now() >= deadline)
                break;
            std::this_thread::yield();
        }
    }
    word.wait(old, std::memory_order_acquire);
    return word.load(std::memory_order_acquire);
}

/**
 * Runs a busy lane -- one with an event due by @p limit -- and books the
 * window as busy for the self-profiler. Such a lane always dispatches,
 * so this equals comparing executed() across the window, and running
 * on the lane's own thread keeps its counters off the coordinator.
 */
template <typename LaneT>
void
runBusyLane(LaneT &lane, Cycles limit)
{
    lane.queue.runUntil(limit);
    ++lane.busyWindows;
    lane.lastExecuted = lane.queue.executed();
}

}  // namespace

ShardedEngine::ShardedEngine(unsigned numSms, unsigned workers)
    : lanes_(numSms),
      workers_(std::max(1u, std::min(workers, numSms))),
      // Spinning only pays when every pool thread has a core of its
      // own; an oversubscribed pool parks at once.
      spin_(workers_ <= std::thread::hardware_concurrency())
{
    MOSAIC_ASSERT(numSms > 0, "sharded engine needs at least one SM lane");
    workerBusyNs_.assign(workers_, 0.0);
}

ShardedEngine::~ShardedEngine()
{
    if (threads_.empty())
        return;
    stop_ = true;
    epochGen_.fetch_add(1, std::memory_order_release);
    epochGen_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ShardedEngine::toHub(SmId srcSm, Cycles when, SimCallback fn)
{
    Lane &lane = lanes_[srcSm];
    MOSAIC_ASSERT(when >= lane.queue.now(), "toHub message in the past");
    lane.outbox.push_back(OutMsg{when, kTargetControl, std::move(fn)});
}

void
ShardedEngine::callHub(SmId srcSm, SimCallback fn)
{
    Lane &lane = lanes_[srcSm];
    lane.outbox.push_back(
        OutMsg{lane.queue.now(), kTargetControl, std::move(fn)});
}

void
ShardedEngine::toSm(SmId sm, Cycles when, SimCallback fn)
{
    // Only valid during the hub phase; delivery checks the window bound.
    hubOutbox_.push_back(HubMsg{sm, false, when, std::move(fn)});
}

void
ShardedEngine::callSm(SmId sm, SimCallback fn)
{
    hubOutbox_.push_back(HubMsg{sm, true, 0, std::move(fn)});
}

void
ShardedEngine::enableHubSubLanes(unsigned count)
{
    MOSAIC_ASSERT(subs_.empty(), "hub sub-lanes already enabled");
    MOSAIC_ASSERT(epochs_ == 0,
                  "hub sub-lanes must be enabled before the first epoch");
    MOSAIC_ASSERT(count > 0, "need at least one hub sub-lane");
    subs_ = std::vector<SubLane>(count);
}

void
ShardedEngine::smToSub(SmId srcSm, unsigned sub, Cycles when, SimCallback fn)
{
    Lane &lane = lanes_[srcSm];
    MOSAIC_ASSERT(when >= lane.queue.now(), "smToSub message in the past");
    lane.outbox.push_back(
        OutMsg{when, static_cast<std::int32_t>(sub), std::move(fn)});
}

void
ShardedEngine::controlToSub(unsigned sub, Cycles when, SimCallback fn)
{
    // The control phase is serial and runs before the sub phase with
    // the workers parked, so a direct timed schedule is exact and safe.
    subs_[sub].queue.schedule(when, std::move(fn));
}

void
ShardedEngine::subToControl(unsigned srcSub, Cycles when, SimCallback fn)
{
    subs_[srcSub].outbox.push_back(
        SubMsg{when, kTargetControl, std::move(fn)});
}

void
ShardedEngine::subToSub(unsigned srcSub, unsigned dstSub, Cycles when,
                        SimCallback fn)
{
    subs_[srcSub].outbox.push_back(
        SubMsg{when, static_cast<std::int32_t>(dstSub), std::move(fn)});
}

void
ShardedEngine::subToSm(unsigned srcSub, SmId sm, Cycles when, SimCallback fn)
{
    subs_[srcSub].outbox.push_back(SubMsg{
        when, static_cast<std::int32_t>(subs_.size() + sm), std::move(fn)});
}

void
ShardedEngine::addBarrierHook(std::function<void()> hook)
{
    barrierHooks_.push_back(std::move(hook));
}

void
ShardedEngine::registerMetrics(StatsRegistry &registry)
{
    // Simulated figures only: every bound value is a pure function of
    // the simulation, so metrics snapshots stay byte-identical for
    // every worker count N >= 1 (tests/shard_test.cpp byte-compares
    // them). Wall-clock and worker-count live in profile() instead.
    registry.bindCounterFn("engine.shard.lanes", [this] {
        return static_cast<std::uint64_t>(lanes_.size());
    });
    registry.bindCounterFn("engine.shard.epochs", [this] { return epochs_; });
    registry.bindCounter("engine.shard.windowJumps", windowJumps_);
    registry.bindCounter("engine.shard.jumpedCycles", jumpedCycles_);
    registry.bindCounterFn("engine.shard.hub.events",
                           [this] { return hub_.executed(); });
    registry.bindCounter("engine.shard.hub.inMsgs", hubInMsgs_);
    registry.bindCounter("engine.shard.hub.toSmTimed", hubToSmTimed_);
    registry.bindCounter("engine.shard.hub.toSmDeferred", hubToSmDeferred_);
    registry.bindCounter("engine.shard.hub.busyWindows", hubBusyWindows_);
    registry.bindGaugeFn("engine.shard.hub.occupancy", [this] {
        return epochs_ == 0
                   ? 0.0
                   : static_cast<double>(hubBusyWindows_) /
                         static_cast<double>(epochs_);
    });
    registry.bindHistogram("engine.shard.hub.queueDepth", hubQueueDepth_);
    registry.bindHistogram("engine.shard.hub.windowEvents", hubWindowEvents_);
    registry.addProvider([this](StatsRegistry::Sink &sink) {
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            const MetricLabels labels{{"lane", std::to_string(i)}};
            sink.counter("engine.shard.lane.events", labels,
                         lanes_[i].queue.executed());
            sink.counter("engine.shard.lane.outMsgs", labels,
                         lanes_[i].outMsgs);
            sink.counter("engine.shard.lane.busyWindows", labels,
                         lanes_[i].busyWindows);
        }
    });
    if (!subs_.empty()) {
        // Per-sub-lane occupancy/traffic (ROADMAP 6(b)): shows how much
        // of the former hub load moved onto the per-channel sub-lanes
        // and how much stays serial on the control sub-lane
        // (engine.shard.hub.* above keeps measuring the latter).
        registry.bindCounterFn("engine.shard.hub.subLanes", [this] {
            return static_cast<std::uint64_t>(subs_.size());
        });
        registry.addProvider([this](StatsRegistry::Sink &sink) {
            for (std::size_t c = 0; c < subs_.size(); ++c) {
                const MetricLabels labels{{"sub", std::to_string(c)}};
                sink.counter("engine.shard.hub.sub.events", labels,
                             subs_[c].queue.executed());
                sink.counter("engine.shard.hub.sub.outMsgs", labels,
                             subs_[c].outMsgs);
                sink.counter("engine.shard.hub.sub.busyWindows", labels,
                             subs_[c].busyWindows);
                sink.gauge("engine.shard.hub.sub.occupancy", labels,
                           epochs_ == 0
                               ? 0.0
                               : static_cast<double>(subs_[c].busyWindows) /
                                     static_cast<double>(epochs_));
            }
        });
    }
}

void
ShardedEngine::setTrace(TraceMux *mux)
{
    trace_ = mux;
}

void
ShardedEngine::setEpochSampleHook(std::function<void(Cycles)> hook)
{
    epochSampleHook_ = std::move(hook);
}

EngineShardProfile
ShardedEngine::profile() const
{
    EngineShardProfile p;
    p.lanes = lanes_.size();
    p.epochs = epochs_;
    p.windowJumps = windowJumps_;
    p.jumpedCycles = jumpedCycles_;
    p.hubEvents = hub_.executed();
    p.hubInMsgs = hubInMsgs_;
    p.hubToSmTimed = hubToSmTimed_;
    p.hubToSmDeferred = hubToSmDeferred_;
    p.hubBusyWindows = hubBusyWindows_;
    p.laneEvents.reserve(lanes_.size());
    p.laneOutMsgs.reserve(lanes_.size());
    p.laneBusyWindows.reserve(lanes_.size());
    for (const Lane &lane : lanes_) {
        p.laneEvents.push_back(lane.queue.executed());
        p.laneOutMsgs.push_back(lane.outMsgs);
        p.laneBusyWindows.push_back(lane.busyWindows);
    }
    p.hubOccupancy = epochs_ == 0 ? 0.0
                                  : static_cast<double>(hubBusyWindows_) /
                                        static_cast<double>(epochs_);
    p.hubSubLanes = subs_.size();
    p.subEvents.reserve(subs_.size());
    p.subOutMsgs.reserve(subs_.size());
    p.subBusyWindows.reserve(subs_.size());
    p.subOccupancy.reserve(subs_.size());
    for (const SubLane &sub : subs_) {
        p.subEvents.push_back(sub.queue.executed());
        p.subOutMsgs.push_back(sub.outMsgs);
        p.subBusyWindows.push_back(sub.busyWindows);
        p.subOccupancy.push_back(
            epochs_ == 0 ? 0.0
                         : static_cast<double>(sub.busyWindows) /
                               static_cast<double>(epochs_));
    }
    p.workers = workers();
    p.pooledPhases = pooledPhases_;
    p.inlinePhases = inlinePhases_;
    p.wallSmPhaseSec = wallSmPhaseNs_ * 1e-9;
    p.wallHubSec = wallHubNs_ * 1e-9;
    p.wallSubPhaseSec = wallSubPhaseNs_ * 1e-9;
    p.wallExchangeSec = wallExchangeNs_ * 1e-9;
    double busySec = 0.0;
    p.workerBusySec.reserve(workerBusyNs_.size());
    for (const double ns : workerBusyNs_) {
        p.workerBusySec.push_back(ns * 1e-9);
        busySec += ns * 1e-9;
    }
    const double parallelCapacity =
        static_cast<double>(p.workers) *
        (p.wallSmPhaseSec + p.wallSubPhaseSec);
    if (parallelCapacity > 0.0) {
        p.workerUtilization = std::min(1.0, busySec / parallelCapacity);
        p.barrierWaitShare = 1.0 - p.workerUtilization;
    }
    return p;
}

void
ShardedEngine::sampleTrace(Cycles windowEnd)
{
    // Runs on the coordinating thread with workers parked; every value
    // and timestamp is a pure function of the simulation, so sampled
    // counter tracks survive the N-independence byte-comparison.
    Tracer *hubRing = trace_->hub();
    hubRing->counter(trace_->laneWindowEventsName(0), windowEnd,
                     hub_.executed() - hubLastSampled_);
    hubRing->counter(trace_->laneQueueDepthName(0), windowEnd,
                     hub_.pending());
    hubLastSampled_ = hub_.executed();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &lane = lanes_[i];
        Tracer *ring = trace_->lane(static_cast<SmId>(i));
        ring->counter(trace_->laneWindowEventsName(1 + i), windowEnd,
                      lane.queue.executed() - lane.lastSampled);
        ring->counter(trace_->laneQueueDepthName(1 + i), windowEnd,
                      lane.queue.pending());
        lane.lastSampled = lane.queue.executed();
    }
    // Sub-lane rings exist only when the mux was built with a matching
    // sub-lane count (the runner guarantees it; tests may not).
    const std::size_t nsub =
        std::min<std::size_t>(subs_.size(), trace_->hubSubLanes());
    for (std::size_t c = 0; c < nsub; ++c) {
        SubLane &sub = subs_[c];
        Tracer *ring = trace_->hubSub(static_cast<unsigned>(c));
        const std::size_t idx = 1 + lanes_.size() + c;
        ring->counter(trace_->laneWindowEventsName(idx), windowEnd,
                      sub.queue.executed() - sub.lastSampled);
        ring->counter(trace_->laneQueueDepthName(idx), windowEnd,
                      sub.queue.pending());
        sub.lastSampled = sub.queue.executed();
    }
}

bool
ShardedEngine::anyWork() const
{
    if (!hub_.empty() || !hubOutbox_.empty())
        return true;
    // Outboxes count as work: a host-context call (fuzz harnesses,
    // tests) can route a message between epochs, where it sits parked
    // until the next exchange step. Ignoring it here would let run()
    // and drain() exit -- and a checkpoint quiesce declare the system
    // drained -- with an undelivered event still in flight.
    for (const Lane &lane : lanes_)
        if (!lane.queue.empty() || !lane.outbox.empty())
            return true;
    for (const SubLane &sub : subs_)
        if (!sub.queue.empty() || !sub.outbox.empty())
            return true;
    return false;
}

void
ShardedEngine::run(Cycles maxCycles, const std::function<bool()> &finished)
{
    while (!finished() && windowStart_ < maxCycles && anyWork())
        runEpoch();
}

void
ShardedEngine::drain()
{
    while (anyWork())
        runEpoch();
}

void
ShardedEngine::runEpoch()
{
    const Cycles windowEnd = windowStart_ + kWindowCycles;
    const auto t0 = std::chrono::steady_clock::now();

    // 1. SM phase: lanes run [windowStart_, windowEnd) concurrently.
    parallelPhase(windowEnd - 1, /*subPhase=*/false);
    const auto t1 = std::chrono::steady_clock::now();

    // 2. Barrier hooks (checker flushes, epoch sweeps).
    for (auto &hook : barrierHooks_)
        hook();

    // 3. Exchange: merge outboxes into the target queues in canonical
    //    (cycle, source lane, source sequence) order. Each queue's own
    //    (when, seq) tie-break then preserves exactly this order,
    //    whatever thread produced each message. Targets: the hub
    //    (control) queue, or -- with sub-lanes enabled -- a hub
    //    sub-lane (L2/DRAM requests routed straight to their channel).
    //    Only non-empty outboxes are written here, so a lane that sent
    //    nothing keeps its cache lines on the thread that runs it.
    mergeScratch_.clear();
    for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
        Lane &lane = lanes_[l];
        if (lane.outbox.empty())
            continue;
        lane.outMsgs += lane.outbox.size();
        for (std::uint32_t i = 0; i < lane.outbox.size(); ++i)
            mergeScratch_.push_back(MergeKey{lane.outbox[i].when, l, i});
    }
    std::sort(mergeScratch_.begin(), mergeScratch_.end(),
              [](const MergeKey &a, const MergeKey &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.lane != b.lane)
                      return a.lane < b.lane;
                  return a.idx < b.idx;
              });
    hubInMsgs_ += mergeScratch_.size();
    for (const MergeKey &key : mergeScratch_) {
        OutMsg &msg = lanes_[key.lane].outbox[key.idx];
        if (msg.target == kTargetControl)
            hub_.schedule(msg.when, std::move(msg.fn));
        else
            subs_[static_cast<std::size_t>(msg.target)].queue.schedule(
                msg.when, std::move(msg.fn));
    }
    for (Lane &lane : lanes_)
        if (!lane.outbox.empty())
            lane.outbox.clear();

    // 4. Control phase: the remaining shared components (L2 TLB,
    //    walker, managers, pager) run the same window serially. It runs
    //    *before* the sub phase so control code may schedule into sub
    //    queues at its own cycle (controlToSub is exact).
    hubQueueDepth_.record(hub_.pending());
    const auto t2 = std::chrono::steady_clock::now();
    hub_.runUntil(windowEnd - 1);
    const auto t3 = std::chrono::steady_clock::now();
    const std::uint64_t hubDelta = hub_.executed() - hubLastExecuted_;
    if (hubDelta != 0) {
        ++hubBusyWindows_;
        hubWindowEvents_.record(hubDelta);
        hubLastExecuted_ = hub_.executed();
    }

    // 5. Delivery: hub -> SM messages, in hub execution order (which is
    //    deterministic because the hub phase is serial).
    for (HubMsg &msg : hubOutbox_) {
        if (msg.deferred) {
            ++hubToSmDeferred_;
            lanes_[msg.sm].queue.schedule(windowEnd, std::move(msg.fn));
        } else {
            MOSAIC_ASSERT(msg.when >= windowEnd,
                          "hub->SM message violates the lookahead window");
            ++hubToSmTimed_;
            lanes_[msg.sm].queue.schedule(msg.when, std::move(msg.fn));
        }
    }
    hubOutbox_.clear();

    // 5b. Sub phase: the per-channel sub-lanes run the same window
    //     concurrently on the worker pool, then their outboxes merge
    //     canonically (see exchangeSubOutboxes).
    auto t4 = t3;
    auto t5 = t3;
    if (!subs_.empty()) {
        t4 = std::chrono::steady_clock::now();
        parallelPhase(windowEnd - 1, /*subPhase=*/true);
        t5 = std::chrono::steady_clock::now();
        exchangeSubOutboxes(windowEnd);
    }

    // 6. Advance, skipping whole windows with no pending events. The
    //    jump depends only on queue contents, so it is identical for
    //    every worker count.
    Cycles next = hub_.nextEventAt();
    for (const Lane &lane : lanes_)
        next = std::min(next, lane.queue.nextEventAt());
    for (const SubLane &sub : subs_)
        next = std::min(next, sub.queue.nextEventAt());
    windowStart_ = windowEnd;
    if (next != EventQueue::kNoEvent && next > windowEnd)
        windowStart_ = std::max(windowEnd, roundDown(next, kWindowCycles));
    if (windowStart_ > windowEnd) {
        ++windowJumps_;
        jumpedCycles_ += windowStart_ - windowEnd;
    }
    ++epochs_;

    if (trace_ != nullptr) {
        const std::uint64_t every = trace_->config().shardSampleEpochs;
        if (every != 0 && epochs_ % every == 0) {
            if (trace_->on(kTraceCounter))
                sampleTrace(windowEnd);
            if (epochSampleHook_)
                epochSampleHook_(windowEnd);
        }
    }

    const auto tEnd = std::chrono::steady_clock::now();
    wallSmPhaseNs_ += elapsedNs(t0, t1);
    wallHubNs_ += elapsedNs(t2, t3);
    wallSubPhaseNs_ += elapsedNs(t4, t5);
    wallExchangeNs_ +=
        elapsedNs(t1, t2) + elapsedNs(t3, t4) + elapsedNs(t5, tEnd);
}

void
ShardedEngine::exchangeSubOutboxes(Cycles windowEnd)
{
    // Canonical merge of the sub-lane outboxes, keyed by the effective
    // delivery cycle max(when, windowEnd): a message whose natural time
    // already clears the window boundary (DRAM completions, sub->SM
    // fills) arrives timed-exact; anything earlier (cross-channel
    // request handoffs, sub->control fill notifications) quantizes to
    // the window start -- a deterministic drift of at most one window.
    // Ties break on (source sub-lane, source sequence), so the order is
    // a pure function of the simulation, never of worker scheduling.
    mergeScratch_.clear();
    for (std::uint32_t s = 0; s < subs_.size(); ++s) {
        SubLane &sub = subs_[s];
        if (sub.outbox.empty())
            continue;
        sub.outMsgs += sub.outbox.size();
        for (std::uint32_t i = 0; i < sub.outbox.size(); ++i)
            mergeScratch_.push_back(
                MergeKey{std::max(sub.outbox[i].when, windowEnd), s, i});
    }
    std::sort(mergeScratch_.begin(), mergeScratch_.end(),
              [](const MergeKey &a, const MergeKey &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.lane != b.lane)
                      return a.lane < b.lane;
                  return a.idx < b.idx;
              });
    const auto nsubs = static_cast<std::int32_t>(subs_.size());
    for (const MergeKey &key : mergeScratch_) {
        SubMsg &msg = subs_[key.lane].outbox[key.idx];
        if (msg.target == kTargetControl)
            hub_.schedule(key.when, std::move(msg.fn));
        else if (msg.target < nsubs)
            subs_[static_cast<std::size_t>(msg.target)].queue.schedule(
                key.when, std::move(msg.fn));
        else
            lanes_[static_cast<std::size_t>(msg.target - nsubs)]
                .queue.schedule(key.when, std::move(msg.fn));
    }
    for (SubLane &sub : subs_)
        if (!sub.outbox.empty())
            sub.outbox.clear();
}

void
ShardedEngine::parallelPhase(Cycles limit, bool subPhase)
{
    // Busy-lane dispatch: only lanes with an event due in the window
    // run. runUntil on any other lane just advances its clock, so the
    // coordinator does that here and every queue clock -- hence every
    // snapshot and checkpoint image -- matches a full dispatch.
    busyLanes_.clear();
    bool spread = false;  // busy lanes owned by two or more threads
    const auto n = static_cast<unsigned>(subPhase ? subs_.size()
                                                  : lanes_.size());
    for (unsigned i = 0; i < n; ++i) {
        EventQueue &queue = subPhase ? subs_[i].queue : lanes_[i].queue;
        if (queue.nextEventAt() > limit) {
            queue.runUntil(limit);
            continue;
        }
        spread = spread ||
                 (!busyLanes_.empty() &&
                  i % workers_ != busyLanes_.front() % workers_);
        busyLanes_.push_back(i);
    }
    laneLimit_ = limit;
    phaseIsSub_ = subPhase;

    // With one owner there is nothing to overlap: run the lanes here
    // rather than pay a handoff. This covers every phase at N = 1 and
    // every phase with fewer than two busy lanes.
    if (!spread) {
        ++inlinePhases_;
        const auto t0 = std::chrono::steady_clock::now();
        runLanes(0, 1);
        workerBusyNs_[0] += elapsedNs(t0, std::chrono::steady_clock::now());
        return;
    }

    ++pooledPhases_;
    if (threads_.empty())
        startWorkers();
    pending_.store(static_cast<unsigned>(threads_.size()),
                   std::memory_order_relaxed);
    // Release: publishes the phase fields above to the workers.
    epochGen_.fetch_add(1, std::memory_order_release);
    epochGen_.notify_all();
    const auto t0 = std::chrono::steady_clock::now();
    runLanes(0, workers_);
    workerBusyNs_[0] += elapsedNs(t0, std::chrono::steady_clock::now());
    for (unsigned left = pending_.load(std::memory_order_acquire); left != 0;)
        left = awaitChange(pending_, left, spin_);
}

void
ShardedEngine::runLanes(unsigned worker, unsigned stride)
{
    for (const std::uint32_t i : busyLanes_) {
        if (i % stride != worker)
            continue;
        if (phaseIsSub_)
            runBusyLane(subs_[i], laneLimit_);
        else
            runBusyLane(lanes_[i], laneLimit_);
    }
}

void
ShardedEngine::startWorkers()
{
    const unsigned gen = epochGen_.load(std::memory_order_relaxed);
    threads_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w, gen] { workerLoop(w, gen); });
}

void
ShardedEngine::workerLoop(unsigned worker, unsigned seenGen)
{
    for (;;) {
        // Each generation is one phase; the coordinator publishes the
        // next only after this worker's decrement, so none is skipped.
        seenGen = awaitChange(epochGen_, seenGen, spin_);
        if (stop_)
            return;
        const auto t0 = std::chrono::steady_clock::now();
        runLanes(worker, workers_);
        workerBusyNs_[worker] +=
            elapsedNs(t0, std::chrono::steady_clock::now());
        // Release: the lanes this worker ran and its busy-time slot are
        // visible to the coordinator once it acquires zero.
        if (pending_.fetch_sub(1, std::memory_order_release) == 1)
            pending_.notify_one();
    }
}

void
ShardedEngine::serialize(ckpt::Archive &ar)
{
    MOSAIC_ASSERT(ar.loading() || !anyWork(),
                  "checkpointing a sharded engine with pending events");
    ar.io(windowStart_);
    ar.io(epochs_);
    ar.io(windowJumps_);
    ar.io(jumpedCycles_);
    ar.io(hubInMsgs_);
    ar.io(hubToSmTimed_);
    ar.io(hubToSmDeferred_);
    ar.io(hubBusyWindows_);
    ar.io(hubLastExecuted_);
    ar.io(hubLastSampled_);
    ar.io(hubQueueDepth_);
    ar.io(hubWindowEvents_);
    ar.io(hub_);
    ar.expect(lanes_.size(), "SM lane count");
    for (Lane &lane : lanes_) {
        ar.io(lane.queue);
        ar.io(lane.outMsgs);
        ar.io(lane.busyWindows);
        ar.io(lane.lastExecuted);
        ar.io(lane.lastSampled);
    }
    ar.expect(subs_.size(), "hub sub-lane count");
    for (SubLane &sub : subs_) {
        ar.io(sub.queue);
        ar.io(sub.outMsgs);
        ar.io(sub.busyWindows);
        ar.io(sub.lastExecuted);
        ar.io(sub.lastSampled);
    }
}

}  // namespace mosaic
