#include "dram/dram.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/log.h"

namespace mosaic {

namespace {

/** Refuses a geometry whose address decode would divide by zero, or
 *  whose scheduler could never dispatch. */
void
checkDramGeometry(const DramConfig &c)
{
    if (c.channels == 0)
        MOSAIC_FATAL("config dram.channels: 0 (addresses need at least "
                     "one channel)");
    if (c.banksPerChannel == 0)
        MOSAIC_FATAL("config dram.banksPerChannel: 0 (a channel needs at "
                     "least one bank)");
    if (c.rowBytes < kCacheLineSize)
        MOSAIC_FATAL("config dram.rowBytes: " + std::to_string(c.rowBytes) +
                     " is below the " + std::to_string(kCacheLineSize) +
                     "-byte line");
    if (c.schedulerWindow == 0)
        MOSAIC_FATAL("config dram.schedulerWindow: 0 (FR-FCFS could never "
                     "dispatch a request)");
}

}  // namespace

DramModel::DramModel(EventQueue &events, const DramConfig &config,
                     StatsRegistry *metrics, Tracer *tracer)
    : events_(events), config_(config), tracer_(tracer),
      channels_(config.channels)
{
    checkDramGeometry(config_);
    for (auto &channel : channels_) {
        channel.banks.assign(config_.banksPerChannel, Bank{});
        channel.lane = &events_;
    }
    if (metrics != nullptr) {
        // Counters are per-channel slices (each written only by its
        // owning lane under the sharded engine); snapshots read the
        // merged sums. Summing integers and merging integer-bucket
        // histograms is exact, so serial snapshots are byte-identical
        // to the pre-slice single-struct layout.
        const auto sum = [this](std::uint64_t ChannelStats::*field) {
            return [this, field] {
                std::uint64_t total = 0;
                for (const Channel &ch : channels_)
                    total += ch.stats.*field;
                return total;
            };
        };
        metrics->bindCounterFn("dram.reads", sum(&ChannelStats::reads));
        metrics->bindCounterFn("dram.writes", sum(&ChannelStats::writes));
        metrics->bindCounterFn("dram.rowHits", sum(&ChannelStats::rowHits));
        metrics->bindCounterFn("dram.rowMisses",
                               sum(&ChannelStats::rowMisses));
        metrics->bindCounter("dram.bulkCopies", bulkCopies_);
        metrics->bindCounter("dram.bulkCopyCycles", bulkCopyCycles_);
        // Same exploded entries bindHistogram would emit, computed from
        // the merged per-channel slices at snapshot time.
        metrics->bindCounterFn("dram.latency.samples", [this] {
            return mergedLatency().samples();
        });
        metrics->bindGaugeFn("dram.latency.mean",
                             [this] { return mergedLatency().mean(); });
        metrics->bindCounterFn("dram.latency.max",
                               [this] { return mergedLatency().max(); });
        metrics->bindGaugeFn("dram.latency.p50", [this] {
            return mergedLatency().percentile(50);
        });
        metrics->bindGaugeFn("dram.latency.p95", [this] {
            return mergedLatency().percentile(95);
        });
    }
}

void
DramModel::attachSubLanes(HubSubLanes *subs)
{
    subs_ = subs;
    if (subs_ == nullptr) {
        for (auto &channel : channels_)
            channel.lane = &events_;
        return;
    }
    assert(subs_->subLaneCount() == channels_.size());
    for (unsigned c = 0; c < channels_.size(); ++c)
        channels_[c].lane = &subs_->subQueue(c);
}

Histogram
DramModel::mergedLatency() const
{
    Histogram merged{32, 64};
    for (const Channel &ch : channels_)
        merged.merge(ch.stats.latency);
    return merged;
}

DramModel::Stats
DramModel::stats() const
{
    Stats s;
    for (const Channel &ch : channels_) {
        s.reads += ch.stats.reads;
        s.writes += ch.stats.writes;
        s.rowHits += ch.stats.rowHits;
        s.rowMisses += ch.stats.rowMisses;
        s.latency.merge(ch.stats.latency);
    }
    s.bulkCopies = bulkCopies_;
    s.bulkCopyCycles = bulkCopyCycles_;
    return s;
}

std::size_t
DramModel::inFlight() const
{
    std::size_t total = 0;
    for (const Channel &ch : channels_)
        total += ch.inFlight;
    return total;
}

DramModel::Decoded
DramModel::decode(Addr addr) const
{
    // Channel selection follows the configured interleave granularity;
    // within a channel, banks interleave at row granularity so streaming
    // accesses enjoy row-buffer hits. idx is the line's sequence number
    // within its channel under each scheme.
    const std::uint64_t line = addr / kCacheLineSize;
    unsigned channel = 0;
    std::uint64_t idx = 0;
    switch (config_.channelInterleave) {
    case ChannelInterleave::Line:
        channel = line % config_.channels;
        idx = line / config_.channels;
        break;
    case ChannelInterleave::Page: {
        const std::uint64_t page = addr / kBasePageSize;
        const std::uint64_t lines_per_page = kBasePageSize / kCacheLineSize;
        channel = page % config_.channels;
        idx = (page / config_.channels) * lines_per_page +
              (line % lines_per_page);
        break;
    }
    case ChannelInterleave::Frame: {
        const std::uint64_t frame = addr / kLargePageSize;
        const std::uint64_t lines_per_frame = kLargePageSize / kCacheLineSize;
        channel = frame % config_.channels;
        idx = (frame / config_.channels) * lines_per_frame +
              (line % lines_per_frame);
        break;
    }
    }
    const std::uint64_t lines_per_row = config_.rowBytes / kCacheLineSize;
    const std::uint64_t row_seq = idx / lines_per_row;
    const unsigned bank = row_seq % config_.banksPerChannel;
    const std::uint64_t row = row_seq / config_.banksPerChannel;
    return Decoded{channel, bank, row};
}

unsigned
DramModel::channelOf(Addr addr) const
{
    return decode(addr).channel;
}

void
DramModel::enqueue(const Decoded &d, bool isWrite, std::int32_t origin,
                   Cycles issued, SimCallback onDone)
{
    Channel &channel = channels_[d.channel];
    channel.bodies.push_back(
        DramRequest{issued, d.row, d.bank, origin, false, std::move(onDone)});
    // The window holds the oldest schedulerWindow queued requests, and a
    // request waits beyond it only while it is full: with fewer queued
    // requests than that, nobody waits and the new one joins.
    if (channel.inFlight < config_.schedulerWindow)
        enterWindow(channel);
    ++channel.inFlight;
    if (isWrite)
        ++channel.stats.writes;
    else
        ++channel.stats.reads;
}

void
DramModel::enterWindow(Channel &channel)
{
    const DramRequest &req =
        channel.bodies[channel.windowEnd - channel.headRank];
    channel.banks[req.bank].window.push_back(
        WindowEntry{channel.windowEnd, req.row});
    ++channel.windowEnd;
}

void
DramModel::access(Addr addr, bool isWrite, SimCallback onDone)
{
    const Decoded d = decode(addr);
    // Under sub-lanes the request is stamped with the control cycle.
    enqueue(d, isWrite, kOriginControl, events_.now(), std::move(onDone));
    if (subs_ == nullptr) {
        // Serial / hub-only engine: the legacy inline path, byte-identical
        // to the pre-sub-lane model.
        tryDispatch(d.channel);
        return;
    }
    // Control phase: sub-lanes are parked, so mutating the channel queue
    // is safe, but dispatch decisions belong to the owning sub-lane's
    // clock — kick it at the current control cycle (the sub phase for
    // this window has not run yet, so the kick lands in-window).
    scheduleDispatch(d.channel, events_.now());
}

void
DramModel::accessFromSub(unsigned srcSub, Addr addr, bool isWrite,
                         SimCallback onDone)
{
    assert(subs_ != nullptr);
    const Decoded d = decode(addr);
    const auto origin = static_cast<std::int32_t>(srcSub);
    if (d.channel == srcSub) {
        enqueue(d, isWrite, origin, channels_[d.channel].lane->now(),
                std::move(onDone));
        tryDispatch(d.channel);
        return;
    }
    // The channel lives on another sub-lane; hand the request over
    // through the router. It arrives at the next window boundary and is
    // stamped with its arrival cycle (bounded deterministic drift of at
    // most one window — see hub_sublanes.h).
    subs_->subToSub(
        srcSub, d.channel, channels_[srcSub].lane->now(),
        [this, d, isWrite, origin, fn = std::move(onDone)]() mutable {
            enqueue(d, isWrite, origin, channels_[d.channel].lane->now(),
                    std::move(fn));
            tryDispatch(d.channel);
        });
}

void
DramModel::scheduleDispatch(unsigned channelIdx, Cycles when)
{
    Channel &channel = channels_[channelIdx];
    when = std::max(when, channel.lane->now());
    // An equal-or-earlier retry already pending covers this request; a
    // *later* pending retry must not swallow an earlier one (it used to:
    // a bare "scheduled" flag dropped the earlier cycle and delayed the
    // dispatch until the stale retry fired), so reschedule instead. The
    // superseded event still fires and no-ops via the dispatchAt check.
    if (channel.dispatchScheduled && channel.dispatchAt <= when)
        return;
    channel.dispatchScheduled = true;
    channel.dispatchAt = when;
    channel.lane->schedule(when, [this, channelIdx, when] {
        Channel &channel = channels_[channelIdx];
        if (!channel.dispatchScheduled || channel.dispatchAt != when)
            return;  // superseded by an earlier reschedule
        channel.dispatchScheduled = false;
        tryDispatch(channelIdx);
    });
}

void
DramModel::completeAt(unsigned channelIdx, Cycles done, std::int32_t origin,
                      SimCallback fn)
{
    Channel &channel = channels_[channelIdx];
    if (subs_ == nullptr ||
        origin == static_cast<std::int32_t>(channelIdx)) {
        // Serial engine, or the completion stays on the owning sub-lane.
        channel.lane->schedule(done, std::move(fn));
        return;
    }
    // Routed at dispatch time with when = done, which exceeds the window
    // end for every shipped timing config, so the completion arrives on
    // the issuer's lane timed-exact (see hub_sublanes.h).
    if (origin == kOriginControl)
        subs_->subToControl(channelIdx, done, std::move(fn));
    else
        subs_->subToSub(channelIdx, static_cast<unsigned>(origin), done,
                        std::move(fn));
}

void
DramModel::tryDispatch(unsigned channelIdx)
{
    Channel &channel = channels_[channelIdx];
    const Cycles now = channel.lane->now();

    while (channel.inFlight > 0) {
        // FR-FCFS over the window: among requests whose bank is ready,
        // the oldest row hit, else the oldest request. A bank's list is
        // arrival-ordered, so its first open-row entry is its oldest hit
        // and its head its oldest request; ranks order them across banks.
        Bank *pick_bank = nullptr;
        std::size_t pick_pos = 0;
        std::uint64_t pick_rank = std::numeric_limits<std::uint64_t>::max();
        bool pick_is_hit = false;
        Cycles earliest_ready = std::numeric_limits<Cycles>::max();
        for (Bank &bank : channel.banks) {
            if (bank.window.empty())
                continue;
            if (bank.readyAt > now) {
                earliest_ready = std::min(earliest_ready, bank.readyAt);
                continue;
            }
            std::size_t hit = 0;
            while (hit < bank.window.size() &&
                   bank.openRow !=
                       static_cast<std::int64_t>(bank.window[hit].row))
                ++hit;
            if (hit < bank.window.size()) {
                if (!pick_is_hit || bank.window[hit].rank < pick_rank) {
                    pick_bank = &bank;
                    pick_pos = hit;
                    pick_rank = bank.window[hit].rank;
                    pick_is_hit = true;
                }
            } else if (!pick_is_hit && bank.window.front().rank < pick_rank) {
                pick_bank = &bank;
                pick_pos = 0;
                pick_rank = bank.window.front().rank;
            }
        }

        if (pick_bank == nullptr) {
            // Every request in the window targets a busy bank; retry
            // when the first bank frees up.
            if (earliest_ready != std::numeric_limits<Cycles>::max())
                scheduleDispatch(channelIdx, earliest_ready);
            return;
        }

        Bank &bank = *pick_bank;
        bank.window.erase(bank.window.begin() +
                          static_cast<std::ptrdiff_t>(pick_pos));
        if (channel.windowEnd != channel.headRank + channel.bodies.size())
            enterWindow(channel);  // the oldest request beyond the window
        DramRequest &req = channel.bodies[pick_rank - channel.headRank];

        const Cycles access_latency =
            pick_is_hit ? config_.rowHitCycles : config_.rowMissCycles;
        if (pick_is_hit)
            ++channel.stats.rowHits;
        else
            ++channel.stats.rowMisses;

        // The data burst occupies the channel bus after the bank access;
        // consecutive bursts on one channel serialize on busFreeAt. The
        // bank frees earlier than the data arrives (it only needs tCCD on
        // a hit / tRC on a conflict before accepting the next access).
        const Cycles data_ready = now + access_latency;
        const Cycles burst_start = std::max(data_ready, channel.busFreeAt);
        const Cycles done = burst_start + config_.burstCycles;
        channel.busFreeAt = done;
        bank.openRow = static_cast<std::int64_t>(req.row);
        bank.readyAt = now + (pick_is_hit ? config_.bankBusyHitCycles
                                          : config_.bankBusyMissCycles);

        channel.stats.latency.record(done - req.issued);
        --channel.inFlight;
        req.dispatched = true;
        completeAt(channelIdx, done, req.origin, std::move(req.onDone));
        while (!channel.bodies.empty() && channel.bodies.front().dispatched) {
            channel.bodies.pop_front();
            ++channel.headRank;
        }
    }
}

Cycles
DramModel::bulkCopyCycles(Addr src, Addr dst, bool inDramCopy) const
{
    const bool same_channel = decode(src).channel == decode(dst).channel;
    if (inDramCopy && same_channel)
        return config_.bulkCopyInDramCycles;
    const std::uint64_t lines = kBasePageSize / kCacheLineSize;
    return lines * config_.bulkCopyViaBusCyclesPerLine;
}

void
DramModel::bulkCopyPage(Addr src, Addr dst, bool inDramCopy,
                        SimCallback onDone)
{
    const unsigned src_channel = decode(src).channel;
    const unsigned dst_channel = decode(dst).channel;
    const bool same_channel = src_channel == dst_channel;

    const Cycles duration = bulkCopyCycles(src, dst, inDramCopy);

    // The copy occupies the destination channel's bus (and the source's
    // too when they differ); model it by pushing out busFreeAt. A
    // cross-channel copy cannot start until *both* buses are free: it
    // streams reads off the source bus and writes onto the destination.
    Channel &dst_ch = channels_[dst_channel];
    Cycles start = std::max(events_.now(), dst_ch.busFreeAt);
    if (!same_channel)
        start = std::max(start, channels_[src_channel].busFreeAt);
    const Cycles done = start + duration;
    dst_ch.busFreeAt = done;
    if (!same_channel) {
        Channel &src_ch = channels_[src_channel];
        src_ch.busFreeAt = std::max(src_ch.busFreeAt, done);
    }

    ++bulkCopies_;
    bulkCopyCycles_ += duration;
    if (tracer_ != nullptr && tracer_->on(kTraceDram)) {
        const std::uint64_t id = traceId(TraceIdSpace::BulkCopy, bulkCopies_);
        tracer_->asyncBegin(kTraceDram, TraceTrack::Dram, "dram.bulkCopy",
                            id, start,
                            {"inDram", inDramCopy && same_channel ? 1u : 0u},
                            {"channel", dst_channel});
        tracer_->asyncEnd(kTraceDram, TraceTrack::Dram, "dram.bulkCopy", id,
                          done);
    }
    events_.schedule(done, std::move(onDone));
}

void
DramModel::serialize(ckpt::Archive &ar)
{
    for (Channel &ch : channels_) {
        MOSAIC_ASSERT(ar.loading() || (ch.inFlight == 0 &&
                                       !ch.dispatchScheduled),
                      "checkpointing a DRAM channel with queued requests");
        for (Bank &bank : ch.banks) {
            ar.as<std::uint64_t>(bank.openRow);
            ar.io(bank.readyAt);
        }
        ar.io(ch.busFreeAt);
        ar.io(ch.stats.reads);
        ar.io(ch.stats.writes);
        ar.io(ch.stats.rowHits);
        ar.io(ch.stats.rowMisses);
        ar.io(ch.stats.latency);
    }
    ar.io(bulkCopies_);
    ar.io(bulkCopyCycles_);
}

}  // namespace mosaic
