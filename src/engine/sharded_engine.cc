#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <string>

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

}  // namespace

ShardedEngine::ShardedEngine(unsigned numSms, unsigned workers)
    : lanes_(numSms)
{
    MOSAIC_ASSERT(numSms > 0, "sharded engine needs at least one SM lane");
    unsigned n = std::max(1u, std::min(workers, numSms));
    workerBusyNs_.assign(n, 0.0);
    threads_.reserve(n - 1);
    for (unsigned i = 0; i + 1 < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i + 1); });
}

ShardedEngine::~ShardedEngine()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    cv_.notify_all();
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

    // Self-profiler, SM side: outbox traffic and window occupancy.
    // Coordinator-only, workers parked; deltas of per-lane executed()
    // counts are pure simulation figures.
    for (Lane &lane : lanes_) {
        lane.outMsgs += lane.outbox.size();
        const std::uint64_t executed = lane.queue.executed();
        if (executed != lane.lastExecuted) {
            ++lane.busyWindows;
            lane.lastExecuted = executed;
        }
    }

    // 3. Exchange: merge outboxes into the target queues in canonical
    //    (cycle, source lane, source sequence) order. Each queue's own
    //    (when, seq) tie-break then preserves exactly this order,
    //    whatever thread produced each message. Targets: the hub
    //    (control) queue, or -- with sub-lanes enabled -- a hub
    //    sub-lane (L2/DRAM requests routed straight to their channel).
    mergeScratch_.clear();
    for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
        const auto &outbox = lanes_[l].outbox;
        for (std::uint32_t i = 0; i < outbox.size(); ++i)
            mergeScratch_.push_back(MergeKey{outbox[i].when, l, i});
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
        for (SubLane &sub : subs_) {
            sub.outMsgs += sub.outbox.size();
            const std::uint64_t executed = sub.queue.executed();
            if (executed != sub.lastExecuted) {
                ++sub.busyWindows;
                sub.lastExecuted = executed;
            }
        }
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
        const auto &outbox = subs_[s].outbox;
        for (std::uint32_t i = 0; i < outbox.size(); ++i)
            mergeScratch_.push_back(
                MergeKey{std::max(outbox[i].when, windowEnd), s, i});
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
        sub.outbox.clear();
}

void
ShardedEngine::parallelPhase(Cycles limit, bool subPhase)
{
    if (threads_.empty()) {
        laneCursor_.store(0, std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        runLanes(limit, subPhase);
        workerBusyNs_[0] += elapsedNs(t0, std::chrono::steady_clock::now());
        return;
    }
    {
        std::lock_guard<std::mutex> lk(m_);
        laneCursor_.store(0, std::memory_order_relaxed);
        laneLimit_ = limit;
        phaseIsSub_ = subPhase;
        pendingWorkers_ = static_cast<unsigned>(threads_.size());
        ++epochGen_;
    }
    cv_.notify_all();
    const auto t0 = std::chrono::steady_clock::now();
    runLanes(limit, subPhase);
    workerBusyNs_[0] += elapsedNs(t0, std::chrono::steady_clock::now());
    std::unique_lock<std::mutex> lk(m_);
    cvDone_.wait(lk, [this] { return pendingWorkers_ == 0; });
}

void
ShardedEngine::runLanes(Cycles limit, bool subPhase)
{
    const unsigned n = static_cast<unsigned>(subPhase ? subs_.size()
                                                      : lanes_.size());
    for (;;) {
        unsigned i = laneCursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        if (subPhase)
            subs_[i].queue.runUntil(limit);
        else
            lanes_[i].queue.runUntil(limit);
    }
}

void
ShardedEngine::workerLoop(unsigned worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        Cycles limit;
        bool subPhase;
        {
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] { return epochGen_ != seen || stop_; });
            if (stop_)
                return;
            seen = epochGen_;
            limit = laneLimit_;
            subPhase = phaseIsSub_;
        }
        const auto t0 = std::chrono::steady_clock::now();
        runLanes(limit, subPhase);
        // Written before taking m_; the coordinator only reads this
        // slot after the cvDone_ wait on m_, so the lock chain orders
        // the access (no atomics needed, TSan-clean).
        workerBusyNs_[worker] +=
            elapsedNs(t0, std::chrono::steady_clock::now());
        {
            std::lock_guard<std::mutex> lk(m_);
            if (--pendingWorkers_ == 0)
                cvDone_.notify_one();
        }
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
