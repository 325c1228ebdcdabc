#include "gpu/sm.h"

#include <algorithm>
#include <limits>

namespace mosaic {

Sm::Sm(EventQueue &events, SmId id, PageTable &pageTable,
       TranslationService &translation, CacheHierarchy &caches,
       DemandPager *pager, const SmConfig &config,
       std::function<void()> onAllWarpsDone)
    : events_(events), id_(id), pageTable_(pageTable),
      translation_(translation), caches_(caches), pager_(pager),
      config_(config), onAllWarpsDone_(std::move(onAllWarpsDone))
{
}

void
Sm::addWarp(std::unique_ptr<WarpStream> stream)
{
    MOSAIC_ASSERT(!started_, "warps must be added before start()");
    WarpCtx ctx;
    ctx.stream = std::move(stream);
    warps_.push_back(std::move(ctx));
    pendingParts_.push_back(0);
    if (warps_.size() > eligible_.size() * 64)
        eligible_.push_back(0);
    setEligible(static_cast<unsigned>(warps_.size() - 1), true);
    ++liveWarps_;
}

void
Sm::setEligible(unsigned warpIdx, bool on)
{
    const std::uint64_t bit = std::uint64_t{1} << (warpIdx % 64);
    if (on)
        eligible_[warpIdx / 64] |= bit;
    else
        eligible_[warpIdx / 64] &= ~bit;
}

void
Sm::start(Cycles when)
{
    started_ = true;
    if (liveWarps_ == 0) {
        stats_.finishedAt = events_.now();
        if (onAllWarpsDone_)
            onAllWarpsDone_();
        return;
    }
    for (WarpCtx &warp : warps_)
        warp.readyAt = when;
    scheduleIssue(when);
}

void
Sm::stallUntil(Cycles until)
{
    stalledUntil_ = std::max(stalledUntil_, until);
}

void
Sm::scheduleIssue(Cycles when)
{
    if (issueScheduled_ || paused_)
        return;
    issueScheduled_ = true;
    events_.schedule(std::max(when, events_.now()), [this] {
        issueScheduled_ = false;
        issueTick();
    });
}

int
Sm::pickWarp() const
{
    const Cycles now = events_.now();
    auto ready = [&](unsigned warpIdx) {
        return eligible(warpIdx) && warps_[warpIdx].readyAt <= now;
    };

    if (config_.scheduler == WarpSchedPolicy::Gto && lastWarp_ >= 0 &&
        ready(static_cast<unsigned>(lastWarp_))) {
        return lastWarp_;  // greedy: stick with the current warp
    }

    if (config_.scheduler == WarpSchedPolicy::RoundRobin) {
        for (std::size_t i = 0; i < warps_.size(); ++i) {
            const unsigned idx = (rrCursor_ + i) % warps_.size();
            if (ready(idx))
                return static_cast<int>(idx);
        }
        return -1;
    }

    // Oldest: the ready warp that issued least recently; ties go to the
    // lowest index.
    int best = -1;
    std::uint64_t best_age = std::numeric_limits<std::uint64_t>::max();
    forEachEligible([&](unsigned i) {
        const WarpCtx &w = warps_[i];
        if (w.readyAt <= now && w.age < best_age) {
            best = static_cast<int>(i);
            best_age = w.age;
        }
    });
    return best;
}

void
Sm::issueTick()
{
    // Quiesce: an already-scheduled tick lands here after pause();
    // do no work and schedule nothing — resume() re-arms the issue.
    if (paused_)
        return;
    const Cycles now = events_.now();
    if (now < stalledUntil_) {
        scheduleIssue(stalledUntil_);
        return;
    }
    if (now < nextIssueAllowed_) {
        scheduleIssue(nextIssueAllowed_);
        return;
    }

    const int picked = pickWarp();
    if (picked < 0) {
        // Nobody is ready. Wake at the earliest compute completion;
        // memory completions re-arm the issue event themselves.
        Cycles earliest = std::numeric_limits<Cycles>::max();
        forEachEligible([&](unsigned i) {
            if (warps_[i].readyAt > now)
                earliest = std::min(earliest, warps_[i].readyAt);
        });
        if (earliest != std::numeric_limits<Cycles>::max())
            scheduleIssue(earliest);
        return;
    }

    const auto idx = static_cast<unsigned>(picked);
    WarpCtx &warp = warps_[idx];
    rrCursor_ = (idx + 1) % warps_.size();

    WarpInstr instr;
    if (!warp.stream->next(instr)) {
        retireWarp(idx);
        if (liveWarps_ > 0)
            scheduleIssue(now);
        return;
    }

    ++stats_.instructions;
    warp.age = ++ageCounter_;
    lastWarp_ = picked;
    nextIssueAllowed_ = now + 1;

    if (!instr.isMemory || instr.numLines == 0) {
        warp.readyAt = now + std::max<Cycles>(1, instr.computeLatency);
    } else {
        ++stats_.memInstructions;
        setEligible(idx, false);  // blocked on memory
        executeMemory(idx, instr);
    }
    scheduleIssue(now + 1);
}

void
Sm::executeMemory(unsigned warpIdx, const WarpInstr &instr)
{
    // Group the coalesced lines by base page: each distinct page needs
    // one translation, then every line in it accesses the data caches.
    struct PageGroup
    {
        Addr pageVa;
        std::array<Addr, kMaxLinesPerInstr> lines;
        unsigned numLines = 0;
    };
    std::array<PageGroup, kMaxLinesPerInstr> groups;
    unsigned num_groups = 0;

    for (unsigned i = 0; i < instr.numLines; ++i) {
        const Addr line = roundDown(instr.lineAddrs[i], kCacheLineSize);
        const Addr page = basePageBase(line);
        PageGroup *group = nullptr;
        for (unsigned g = 0; g < num_groups; ++g) {
            if (groups[g].pageVa == page) {
                group = &groups[g];
                break;
            }
        }
        if (group == nullptr) {
            group = &groups[num_groups++];
            group->pageVa = page;
        }
        group->lines[group->numLines++] = line;
    }

    pendingParts_[warpIdx] = instr.numLines;
    const bool is_store = instr.isStore;

    for (unsigned g = 0; g < num_groups; ++g) {
        const PageGroup group = groups[g];
        translatePage(warpIdx, group.pageVa, 0,
                      [this, warpIdx, group,
                       is_store](const Translation &t) {
            const Addr pa_page = basePageBase(t.physAddr);
            for (unsigned i = 0; i < group.numLines; ++i) {
                const Addr pa_line =
                    pa_page + (group.lines[i] & (kBasePageSize - 1));
                caches_.access(id_, pa_line, is_store, [this, warpIdx] {
                    warpMemPartDone(warpIdx);
                });
            }
        });
    }
}

void
Sm::translatePage(unsigned warpIdx, Addr pageVa, unsigned retries,
                  std::function<void(const Translation &)> onDone)
{
    translation_.translate(id_, pageTable_, pageVa,
                           [this, warpIdx, pageVa, retries,
                            cb = std::move(onDone)](const Translation &t) {
        if (t.valid && t.resident) {
            cb(t);
            return;
        }
        MOSAIC_ASSERT(pager_ != nullptr,
                      "page fault with no demand pager attached");
        MOSAIC_ASSERT(retries < config_.maxFaultRetries,
                      "fault retry limit hit; allocator cannot back page");
        ++stats_.farFaultStalls;
        pager_->handleFarFault(id_, pageTable_, pageVa,
                               [this, warpIdx, pageVa, retries,
                                cb = std::move(cb)]() mutable {
            translatePage(warpIdx, pageVa, retries + 1, std::move(cb));
        });
    });
}

void
Sm::warpMemPartDone(unsigned warpIdx)
{
    MOSAIC_ASSERT(pendingParts_[warpIdx] > 0, "spurious completion");
    if (--pendingParts_[warpIdx] == 0) {
        setEligible(warpIdx, true);
        warps_[warpIdx].readyAt = events_.now();
        scheduleIssue(events_.now());
    }
}

void
Sm::serialize(ckpt::Archive &ar)
{
    // A quiesce point implies no scheduled issue event, no warp waiting
    // on memory, and no outstanding parts: continuations cannot be
    // serialized, so the drain must have retired them all.
    MOSAIC_ASSERT(ar.loading() || !issueScheduled_,
                  "checkpointing an SM with a scheduled issue event");
    ar.expect(warps_.size(), "SM warp count");
    for (std::size_t i = 0; i < warps_.size(); ++i) {
        WarpCtx &warp = warps_[i];
        MOSAIC_ASSERT(ar.loading() || pendingParts_[i] == 0,
                      "checkpointing an SM with in-flight memory ops");
        ar.io(warp.readyAt);
        ar.io(warp.done);
        ar.io(warp.age);
        ar.io(*warp.stream);
        if (ar.loading()) {
            pendingParts_[i] = 0;
            setEligible(static_cast<unsigned>(i), !warp.done);
        }
    }
    ar.io(liveWarps_);
    ar.as<std::uint32_t>(lastWarp_);
    ar.io(rrCursor_);
    ar.io(started_);
    ar.io(stalledUntil_);
    ar.io(nextIssueAllowed_);
    ar.io(ageCounter_);
    ar.io(stats_.instructions);
    ar.io(stats_.memInstructions);
    ar.io(stats_.farFaultStalls);
    ar.io(stats_.finishedAt);
}

void
Sm::retireWarp(unsigned warpIdx)
{
    WarpCtx &warp = warps_[warpIdx];
    MOSAIC_ASSERT(!warp.done, "double retire");
    warp.done = true;
    setEligible(warpIdx, false);
    --liveWarps_;
    if (liveWarps_ == 0) {
        stats_.finishedAt = events_.now();
        if (onAllWarpsDone_)
            onAllWarpsDone_();
    }
}

}  // namespace mosaic
