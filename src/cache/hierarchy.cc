#include "cache/hierarchy.h"

#include <algorithm>

namespace mosaic {

CacheHierarchy::CacheHierarchy(EventQueue &events, DramModel &dram,
                               const CacheHierarchyConfig &config,
                               StatsRegistry *metrics, LaneRouter *router)
    : events_(events), dram_(dram), config_(config), router_(router),
      smStats_(config.numSms)
{
    if (metrics != nullptr) {
        // SM-side counters live in per-SM slices (see SmStats) and are
        // summed on demand, so the bindings are functions, not refs.
        metrics->bindCounterFn("cache.l1.accesses",
                               [this] { return stats().l1Accesses; });
        metrics->bindCounterFn("cache.l1.hits",
                               [this] { return stats().l1Hits; });
        metrics->bindCounterFn("cache.l2.accesses",
                               [this] { return stats().l2Accesses; });
        metrics->bindCounterFn("cache.l2.hits",
                               [this] { return stats().l2Hits; });
        metrics->bindCounterFn("cache.writebacks",
                               [this] { return stats().writebacks; });
    }
    const std::size_t l1_lines = config_.l1Bytes / kCacheLineSize;
    const std::size_t l1_sets = std::max<std::size_t>(
        1, l1_lines / config_.l1Ways);
    l1Tags_.reserve(config_.numSms);
    l1Mshrs_.reserve(config_.numSms);
    for (unsigned i = 0; i < config_.numSms; ++i) {
        l1Tags_.emplace_back(l1_sets, config_.l1Ways);
        l1Mshrs_.emplace_back(config_.l1MshrEntries);
    }

    const std::size_t l2_lines = config_.l2Bytes / kCacheLineSize;
    const std::size_t l2_lines_per_bank =
        std::max<std::size_t>(1, l2_lines / config_.l2Banks);
    const std::size_t l2_sets = std::max<std::size_t>(
        1, l2_lines_per_bank / config_.l2Ways);
    l2Banks_.reserve(config_.l2Banks);
    for (unsigned i = 0; i < config_.l2Banks; ++i) {
        auto &bank = l2Banks_.emplace_back(config_.l2MshrEntries);
        bank.tags = std::make_unique<SetAssocCache>(l2_sets, config_.l2Ways);
    }
}

void
CacheHierarchy::attachSubLanes(HubSubLanes *subs)
{
    MOSAIC_ASSERT(subs == nullptr || router_ != nullptr,
                  "hub sub-lanes require the sharded engine's router");
    subs_ = subs;
}

void
CacheHierarchy::access(SmId sm, Addr paddr, bool isWrite, Callback onDone)
{
    MOSAIC_ASSERT(sm < l1Tags_.size(), "SM id out of range");
    const std::uint64_t line = lineOf(paddr);
    SetAssocCache &l1 = l1Tags_[sm];
    MshrFile &mshr = l1Mshrs_[sm];
    EventQueue &lane = router_ != nullptr ? router_->laneQueue(sm) : events_;

    ++smStats_[sm].l1Accesses;
    if (l1.access(line, isWrite)) {
        ++smStats_[sm].l1Hits;
        lane.scheduleAfter(config_.l1LatencyCycles, std::move(onDone));
        return;
    }

    const auto outcome = mshr.registerMiss(line, std::move(onDone));
    if (outcome != MshrFile::Outcome::NewMiss)
        return;  // merged into an in-flight miss

    // Forward to the shared L2 across the interconnect; on fill, install
    // the line in the L1 and release every merged waiter.
    if (subs_ != nullptr) {
        // Both hops cross lanes at their natural cycles: the miss lands
        // on the bank's sub-lane at lane-now + hop, and the response
        // lands back on the SM lane at sub-now + hop, which always
        // clears the window boundary (the hop is >= the lookahead
        // window), so both directions are timed-exact.
        const unsigned sub = subOf(bankOf(line));
        subs_->smToSub(sm, sub, lane.now() + config_.interconnectCycles,
                       [this, sm, sub, line, isWrite] {
            accessL2Line(line, isWrite, [this, sm, sub, line, isWrite] {
                subs_->subToSm(sub, sm,
                               subs_->subQueue(sub).now() +
                                   config_.interconnectCycles,
                               [this, sm, line, isWrite] {
                    installL1Fill(sm, line, isWrite);
                });
            });
        });
        return;
    }
    if (router_ != nullptr) {
        // Both interconnect hops cross lanes at their natural cycles:
        // the miss lands on the hub at lane-now + hop, and the response
        // lands back on the lane at hub-now + hop, which is always in a
        // later window (the hop is >= the lookahead window).
        router_->toHub(sm, lane.now() + config_.interconnectCycles,
                       [this, sm, line, isWrite] {
            accessL2Line(line, isWrite, [this, sm, line, isWrite] {
                router_->toSm(sm, events_.now() + config_.interconnectCycles,
                              [this, sm, line, isWrite] {
                    installL1Fill(sm, line, isWrite);
                });
            });
        });
        return;
    }
    events_.scheduleAfter(config_.interconnectCycles, [this, sm, line,
                                                       isWrite] {
        accessL2Line(line, isWrite, [this, sm, line, isWrite] {
            events_.scheduleAfter(config_.interconnectCycles, [this, sm,
                                                               line,
                                                               isWrite] {
                installL1Fill(sm, line, isWrite);
            });
        });
    });
}

void
CacheHierarchy::installL1Fill(SmId sm, std::uint64_t line, bool isWrite)
{
    SetAssocCache &l1_tags = l1Tags_[sm];
    if (!l1_tags.contains(line)) {
        // Write-allocate: a write miss installs dirty.
        auto victim = l1_tags.insert(line, isWrite);
        if (victim && victim->dirty) {
            ++smStats_[sm].writebacks;
            // Write back through the L2 (fire and forget). The L2 is
            // hub-side, so the sharded path crosses lanes -- to the
            // victim's bank's own sub-lane when sub-lanes are attached.
            if (subs_ != nullptr) {
                const std::uint64_t key = victim->key;
                subs_->smToSub(sm, subOf(bankOf(key)),
                               router_->laneQueue(sm).now(),
                               [this, key] { accessL2Line(key, true, [] {}); });
            } else if (router_ != nullptr) {
                router_->callHub(sm, [this, key = victim->key] {
                    accessL2Line(key, true, [] {});
                });
            } else {
                accessL2Line(victim->key, true, [] {});
            }
        }
    }
    l1Mshrs_[sm].fill(line);
}

CacheHierarchy::Stats
CacheHierarchy::stats() const
{
    // Per-bank and per-SM slices, summed on demand: integer sums are
    // exact, so the merged totals match the old shared-struct layout
    // byte for byte.
    Stats total;
    for (const L2Bank &bank : l2Banks_) {
        total.l2Accesses += bank.accesses;
        total.l2Hits += bank.hits;
        total.writebacks += bank.writebacks;
    }
    for (const SmStats &s : smStats_) {
        total.l1Accesses += s.l1Accesses;
        total.l1Hits += s.l1Hits;
        total.writebacks += s.writebacks;
    }
    return total;
}

void
CacheHierarchy::accessFromL2(Addr paddr, bool isWrite, Callback onDone)
{
    const std::uint64_t line = lineOf(paddr);
    if (subs_ == nullptr) {
        accessL2Line(line, isWrite, std::move(onDone));
        return;
    }
    // Control-lane probe (walker / runtime): hop to the bank's sub-lane
    // at the current control cycle (exact -- the control phase runs
    // before the sub phase), run the lookup there, and return the
    // completion to the control lane. The return crosses back at the
    // next window boundary (bounded drift; see hub_sublanes.h).
    const unsigned sub = subOf(bankOf(line));
    subs_->controlToSub(
        sub, events_.now(),
        [this, sub, line, isWrite, onDone = std::move(onDone)]() mutable {
            accessL2Line(line, isWrite,
                         [this, sub, onDone = std::move(onDone)]() mutable {
                subs_->subToControl(sub, subs_->subQueue(sub).now(),
                                    std::move(onDone));
            });
        });
}

void
CacheHierarchy::accessDram(Addr paddr, bool isWrite, Callback onDone)
{
    dram_.access(roundDown(paddr, kCacheLineSize), isWrite,
                 std::move(onDone));
}

void
CacheHierarchy::accessL2Line(std::uint64_t line, bool isWrite,
                             Callback onDone)
{
    const unsigned bank_idx = bankOf(line);
    L2Bank &bank = l2Banks_[bank_idx];
    // With sub-lanes attached this runs on the bank's own sub-lane and
    // all timing reads that lane's clock; the bank's DRAM traffic
    // issues from the same sub-lane (same-channel accesses stay local
    // under the default congruent Line interleave).
    EventQueue &q = bankQueue(bank_idx);
    ++bank.accesses;

    // Bank issue port: pipelined, one new access per l2BankCycleTime.
    const Cycles issue_at = std::max(q.now(), bank.nextIssueAt);
    bank.nextIssueAt = issue_at + config_.l2BankCycleTime;
    const Cycles queue_delay = issue_at - q.now();

    if (bank.tags->access(line, isWrite)) {
        ++bank.hits;
        q.scheduleAfter(queue_delay + config_.l2LatencyCycles,
                        std::move(onDone));
        return;
    }

    const auto outcome = bank.mshr.registerMiss(line, std::move(onDone));
    if (outcome != MshrFile::Outcome::NewMiss)
        return;

    const Addr line_addr = line * kCacheLineSize;
    q.scheduleAfter(queue_delay + config_.l2LatencyCycles,
                    [this, line, line_addr, isWrite] {
        auto fill = [this, line, isWrite] {
            L2Bank &fill_bank = l2Banks_[bankOf(line)];
            if (!fill_bank.tags->contains(line)) {
                auto victim = fill_bank.tags->insert(line, isWrite);
                if (victim && victim->dirty) {
                    ++fill_bank.writebacks;
                    const Addr wb_addr = victim->key * kCacheLineSize;
                    if (subs_ != nullptr)
                        dram_.accessFromSub(subOf(bankOf(line)), wb_addr,
                                            true, [] {});
                    else
                        dram_.access(wb_addr, true, [] {});
                }
            }
            fill_bank.mshr.fill(line);
        };
        if (subs_ != nullptr)
            dram_.accessFromSub(subOf(bankOf(line)), line_addr, isWrite,
                                std::move(fill));
        else
            dram_.access(line_addr, isWrite, std::move(fill));
    });
}

void
CacheHierarchy::serialize(ckpt::Archive &ar)
{
    for (SetAssocCache &tags : l1Tags_)
        ar.io(tags);
    for (MshrFile &mshr : l1Mshrs_)
        ar.io(mshr);
    for (L2Bank &bank : l2Banks_) {
        ar.io(*bank.tags);
        ar.io(bank.mshr);
        ar.io(bank.nextIssueAt);
        ar.io(bank.accesses);
        ar.io(bank.hits);
        ar.io(bank.writebacks);
    }
    for (SmStats &s : smStats_) {
        ar.io(s.l1Accesses);
        ar.io(s.l1Hits);
        ar.io(s.writebacks);
    }
}

}  // namespace mosaic
