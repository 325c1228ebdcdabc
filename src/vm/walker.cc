#include "vm/walker.h"

namespace mosaic {

namespace {

/** Per-level span names ("walk.L1" is the root). */
const char *
walkLevelName(unsigned depth)
{
    static const char *const names[PageTable::kMaxLevels] = {
        "walk.L1", "walk.L2", "walk.L3", "walk.L4", "walk.L5", "walk.L6"};
    return depth < PageTable::kMaxLevels ? names[depth] : "walk.L?";
}

}  // namespace

PageTableWalker::PageTableWalker(EventQueue &events, CacheHierarchy &memory,
                                 const WalkerConfig &config,
                                 StatsRegistry *metrics, Tracer *tracer)
    : events_(events), memory_(memory), config_(config), tracer_(tracer)
{
    if (config_.usePageWalkCache) {
        pwc_ = std::make_unique<SetAssocCache>(1, config_.pwcEntries);
    }
    if (metrics != nullptr) {
        metrics->bindCounter("vm.walker.walks", stats_.walks);
        metrics->bindCounter("vm.walker.queued", stats_.queued);
        metrics->bindCounter("vm.walker.faults", stats_.faults);
        metrics->bindCounter("vm.walker.largeResults", stats_.largeResults);
        metrics->bindCounter("vm.walker.pwcHits", stats_.pwcHits);
        metrics->bindCounter("vm.walker.pwcMisses", stats_.pwcMisses);
        metrics->bindHistogram("vm.walker.latency", stats_.latency);
    }
}

PageTableWalker::Walk *
PageTableWalker::acquireWalk()
{
    if (freeWalks_.empty()) {
        pool_.push_back(std::make_unique<Walk>());
        return pool_.back().get();
    }
    Walk *walk = freeWalks_.back();
    freeWalks_.pop_back();
    return walk;
}

void
PageTableWalker::releaseWalk(Walk *walk)
{
    // onDone was moved out in finish(); the rest is overwritten on reuse.
    freeWalks_.push_back(walk);
}

void
PageTableWalker::requestWalk(const PageTable &pageTable, Addr va,
                             WalkCallback onDone)
{
    Walk *walk = acquireWalk();
    walk->pageTable = &pageTable;
    walk->va = va;
    walk->onDone = std::move(onDone);
    walk->startedAt = events_.now();
    walk->traceId = 0;
    walk->wasQueued = false;
    if (tracer_ != nullptr && tracer_->on(kTraceVm)) {
        walk->traceId = traceId(TraceIdSpace::Walk, tracer_->nextId());
        tracer_->asyncBegin(
            kTraceVm, TraceTrack::Vm, "walk", walk->traceId, walk->startedAt,
            {"va", va},
            {"app", static_cast<std::uint64_t>(pageTable.appId())});
    }
    if (active_ >= config_.maxConcurrentWalks) {
        ++stats_.queued;
        walk->wasQueued = true;
        queue_.push_back(walk);
        return;
    }
    startWalk(walk);
}

void
PageTableWalker::startWalk(Walk *walk)
{
    ++active_;
    ++stats_.walks;
    if (walk->traceId != 0 && walk->wasQueued) {
        // The whole wait for a walker slot as one nested span.
        tracer_->asyncBegin(kTraceVm, TraceTrack::Vm, "walk.queued",
                            walk->traceId, walk->startedAt);
        tracer_->asyncEnd(kTraceVm, TraceTrack::Vm, "walk.queued",
                          walk->traceId, events_.now());
    }
    // Snapshot the walk path and coalescing state at walk start; the
    // runtime never changes mappings under an in-flight access (CAC
    // stalls the GPU during compaction), so the snapshot stays valid.
    walk->path = walk->pageTable->walkPath(walk->va);
    walk->coalesced = walk->pageTable->isCoalesced(walk->va);
    walk->numLevels = walk->pageTable->numWalkLevels();
    walk->depth = 0;
    step(walk);
}

void
PageTableWalker::step(Walk *walk)
{
    if (walk->depth >= walk->numLevels) {
        finish(walk, false);
        return;
    }

    const Addr pte_addr = walk->path[walk->depth];
    if (pte_addr == kInvalidAddr) {
        // The previous level's PTE was invalid: page fault.
        finish(walk, true);
        return;
    }
    walk->levelStartedAt = events_.now();

    // Upper levels (root..L3) may hit in the page-walk cache; leaf-level
    // PTEs always go to memory, as in CPU walkers.
    const bool pwc_eligible =
        pwc_ != nullptr && walk->depth < walk->numLevels - 1;
    const std::uint64_t pte_line = pte_addr / kCacheLineSize;
    if (pwc_eligible && pwc_->access(pte_line)) {
        ++stats_.pwcHits;
        events_.scheduleAfter(config_.pwcLatencyCycles, [this, walk] {
            advanceAfterRead(walk);
        });
        return;
    }
    if (pwc_eligible)
        ++stats_.pwcMisses;

    auto on_read = [this, walk, pwc_eligible, pte_line] {
        if (pwc_eligible)
            pwc_->insertIfAbsent(pte_line);
        advanceAfterRead(walk);
    };
    if (config_.pteInDram)
        memory_.accessDram(pte_addr, false, std::move(on_read));
    else
        memory_.accessFromL2(pte_addr, false, std::move(on_read));
}

void
PageTableWalker::advanceAfterRead(Walk *walk)
{
    if (walk->traceId != 0) {
        // Per-level latency attribution: one nested span per PTE read,
        // from issue to data return (PWC hits show as short spans).
        tracer_->asyncBegin(kTraceVm, TraceTrack::Vm,
                            walkLevelName(walk->depth), walk->traceId,
                            walk->levelStartedAt);
        tracer_->asyncEnd(kTraceVm, TraceTrack::Vm,
                          walkLevelName(walk->depth), walk->traceId,
                          events_.now());
    }
    // On a coalesced region the L3 PTE (depth 2) has the large bit set;
    // the walker then reads only the first L4 PTE to obtain the large
    // frame number (paper Fig. 7). That read is the depth-3 access, after
    // which the walk completes with a large-page translation, exactly the
    // same number of accesses as a base walk but yielding 2MB reach.
    ++walk->depth;
    step(walk);
}

void
PageTableWalker::finish(Walk *walk, bool faulted)
{
    Translation result;
    if (!faulted)
        result = walk->pageTable->translate(walk->va);
    if (!result.valid)
        ++stats_.faults;
    else if (result.level != 0)
        ++stats_.largeResults;
    stats_.latency.record(events_.now() - walk->startedAt);
    if (walk->traceId != 0) {
        tracer_->asyncEnd(kTraceVm, TraceTrack::Vm, "walk", walk->traceId,
                          events_.now(), {"faulted", faulted ? 1u : 0u},
                          {"large", result.level != 0 ? 1u : 0u});
    }

    // Detach the continuation, then recycle the record before anything
    // downstream runs: both the next queued walk and the continuation
    // may start new walks, which can reuse this very slot. Ordering is
    // load-bearing for determinism -- the next queued walk issues its
    // first PTE read before the finished walk's continuation runs,
    // exactly as the pre-pool walker did.
    WalkCallback onDone = std::move(walk->onDone);
    --active_;
    releaseWalk(walk);
    if (!queue_.empty()) {
        Walk *next = queue_.front();
        queue_.pop_front();
        startWalk(next);
    }

    onDone(result);
}

void
PageTableWalker::invalidatePwcForSplinter(const PageTable &pageTable,
                                          Addr vaBase, unsigned level)
{
    if (pwc_ == nullptr)
        return;
    const auto path = pageTable.walkPath(vaBase);
    const Addr bit_pte = path[pageTable.coalesceBitDepth(level)];
    if (bit_pte != kInvalidAddr)
        pwc_->invalidate(bit_pte / kCacheLineSize);
}

void
PageTableWalker::serialize(ckpt::Archive &ar)
{
    MOSAIC_ASSERT(ar.loading() || (active_ == 0 && queue_.empty()),
                  "checkpointing a walker with in-flight walks");
    ar.io(stats_.walks);
    ar.io(stats_.queued);
    ar.io(stats_.faults);
    ar.io(stats_.largeResults);
    ar.io(stats_.pwcHits);
    ar.io(stats_.pwcMisses);
    ar.io(stats_.latency);
    ar.expect(pwc_ != nullptr, "page-walk cache presence");
    if (pwc_ != nullptr)
        ar.io(*pwc_);
}

}  // namespace mosaic
