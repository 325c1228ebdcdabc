/** @file Unit tests for the DRAM model and FR-FCFS scheduler. */

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dram/dram.h"
#include "engine/event_queue.h"

namespace mosaic {
namespace {

DramConfig
testConfig()
{
    DramConfig c;
    c.channels = 2;
    c.banksPerChannel = 2;
    c.rowBytes = 512;  // 4 lines per row
    c.rowHitCycles = 10;
    c.rowMissCycles = 40;
    c.bankBusyHitCycles = 2;
    c.bankBusyMissCycles = 20;
    c.burstCycles = 2;
    return c;
}

TEST(DramTest, SingleAccessCompletesWithMissLatency)
{
    EventQueue ev;
    DramModel dram(ev, testConfig());
    Cycles done = 0;
    dram.access(0, false, [&] { done = ev.now(); });
    ev.runAll();
    // Cold access: row miss (40) + burst (2).
    EXPECT_EQ(done, 42u);
    EXPECT_EQ(dram.stats().rowMisses, 1u);
    EXPECT_EQ(dram.stats().reads, 1u);
}

TEST(DramTest, RowHitIsFasterThanRowMiss)
{
    EventQueue ev;
    DramModel dram(ev, testConfig());
    Cycles first = 0, second = 0;
    dram.access(0, false, [&] { first = ev.now(); });
    ev.runAll();
    // Same line again: open row.
    dram.access(0, false, [&] { second = ev.now(); });
    ev.runAll();
    EXPECT_LT(second - first, first);
    EXPECT_EQ(dram.stats().rowHits, 1u);
}

TEST(DramTest, ChannelsInterleaveByLine)
{
    DramConfig cfg = testConfig();
    EventQueue ev;
    DramModel dram(ev, cfg);
    EXPECT_EQ(dram.channelOf(0), 0u);
    EXPECT_EQ(dram.channelOf(kCacheLineSize), 1u);
    EXPECT_EQ(dram.channelOf(2 * kCacheLineSize), 0u);
}

TEST(DramTest, IndependentChannelsOverlap)
{
    EventQueue ev;
    DramModel dram(ev, testConfig());
    Cycles done_a = 0, done_b = 0;
    dram.access(0, false, [&] { done_a = ev.now(); });
    dram.access(kCacheLineSize, false, [&] { done_b = ev.now(); });
    ev.runAll();
    // Different channels: both finish at the cold-miss time.
    EXPECT_EQ(done_a, 42u);
    EXPECT_EQ(done_b, 42u);
}

TEST(DramTest, FrFcfsPrefersRowHitOverOlderConflict)
{
    DramConfig cfg = testConfig();
    EventQueue ev;
    DramModel dram(ev, cfg);

    // Channel-0 bank-0 geometry: in-channel index idx = line/2; rows
    // hold 4 indices, banks interleave by row, so bank 0 covers rows
    // with even row_seq: idx 0..3 -> row 0, idx 8..11 -> row 2, etc.
    // All three addresses below live on channel 0.
    auto addr_of_idx = [](std::uint64_t idx) {
        return static_cast<Addr>(idx) * 2 * kCacheLineSize;
    };

    // (a) dispatches immediately (row 2 conflict) and leaves the bank
    // busy; (b) and (c) queue up behind it. When the bank frees, FR-FCFS
    // must pick (c), the younger row-2 hit, before (b)'s conflict.
    Cycles b_done = 0, c_done = 0;
    dram.access(addr_of_idx(8), false, [] {});            // (a) row 2
    dram.access(addr_of_idx(16), false,                   // (b) row 4
                [&] { b_done = ev.now(); });
    dram.access(addr_of_idx(9), false,                    // (c) row 2 hit
                [&] { c_done = ev.now(); });
    ev.runAll();
    EXPECT_LT(c_done, b_done);
}

TEST(DramTest, BulkCopyInDramIsFast)
{
    EventQueue ev;
    DramConfig cfg = testConfig();
    DramModel dram(ev, cfg);
    Cycles done = 0;
    // Same page-channel source and destination.
    dram.bulkCopyPage(0, 2 * cfg.channels * kLargePageSize, true,
                      [&] { done = ev.now(); });
    ev.runAll();
    EXPECT_EQ(done, cfg.bulkCopyInDramCycles);
    EXPECT_EQ(dram.stats().bulkCopies, 1u);
}

TEST(DramTest, BulkCopyViaBusIsSlow)
{
    EventQueue ev;
    DramConfig cfg = testConfig();
    DramModel dram(ev, cfg);
    Cycles done = 0;
    dram.bulkCopyPage(0, 2 * cfg.channels * kLargePageSize, false,
                      [&] { done = ev.now(); });
    ev.runAll();
    const Cycles expected =
        (kBasePageSize / kCacheLineSize) * cfg.bulkCopyViaBusCyclesPerLine;
    EXPECT_EQ(done, expected);
}

TEST(DramTest, BulkCopyOccupiesChannelBus)
{
    EventQueue ev;
    DramConfig cfg = testConfig();
    DramModel dram(ev, cfg);
    Cycles copy_done = 0, access_done = 0;
    dram.bulkCopyPage(0, 2 * cfg.channels * kLargePageSize, false,
                      [&] { copy_done = ev.now(); });
    // An access to the destination channel must wait for the bus.
    dram.access(0, false, [&] { access_done = ev.now(); });
    ev.runAll();
    EXPECT_GT(access_done, copy_done);
}

TEST(DramTest, CrossChannelBulkCopyWaitsForSourceBus)
{
    EventQueue ev;
    DramConfig cfg = testConfig();
    DramModel dram(ev, cfg);
    const Cycles via_bus =
        (kBasePageSize / kCacheLineSize) * cfg.bulkCopyViaBusCyclesPerLine;

    // First copy: channel 0 -> channel 0 via the bus, occupying the
    // channel-0 bus for [0, via_bus).
    Cycles first_done = 0, second_done = 0;
    dram.bulkCopyPage(0, 2 * cfg.channels * kLargePageSize, false,
                      [&] { first_done = ev.now(); });
    // Second copy: channel 0 -> channel 1. The destination bus is idle,
    // but the *source* bus is mid-copy: the cross-channel copy streams
    // reads off it, so it cannot start before via_bus. (Pre-fix, the
    // start cycle only consulted the destination bus and this copy
    // finished at via_bus, overlapping the source bus.)
    dram.bulkCopyPage(0, kCacheLineSize, true,
                      [&] { second_done = ev.now(); });
    ev.runAll();
    EXPECT_EQ(first_done, via_bus);
    EXPECT_EQ(second_done, 2 * via_bus);
}

TEST(DramTest, EarlierRetryReschedulesPendingLaterRetry)
{
    // Two banks with long conflict occupancy: bank 1 is primed early
    // (frees at 100), bank 0 late (frees at 160). A request blocked on
    // bank 0 schedules a retry at 160; a younger request blocked on
    // bank 1 then asks for a retry at 100. The old bare "scheduled"
    // flag dropped the earlier request and the bank-1 hit sat idle
    // until cycle 160.
    DramConfig cfg = testConfig();
    cfg.rowMissCycles = 12;
    cfg.bankBusyMissCycles = 100;
    EventQueue ev;
    DramModel dram(ev, cfg);

    // Channel-0 geometry (see FrFcfsPrefersRowHitOverOlderConflict):
    // idx = line/2, 4 idx per row, banks interleave by row_seq, so
    // idx 4..7 -> bank 1 row 1, idx 8..11 -> bank 0 row 2, idx 16..19
    // -> bank 0 row 4.
    auto addr_of_idx = [](std::uint64_t idx) {
        return static_cast<Addr>(idx) * 2 * kCacheLineSize;
    };

    Cycles b_done = 0, d_done = 0;
    dram.access(addr_of_idx(4), false, [] {});  // prime bank 1, row 1
    ev.schedule(60, [&] {
        dram.access(addr_of_idx(8), false, [] {});  // bank 0, row 2
    });
    ev.schedule(61, [&] {
        // Blocked on bank 0 (busy until 160): retry scheduled at 160.
        dram.access(addr_of_idx(16), false, [&] { b_done = ev.now(); });
    });
    ev.schedule(62, [&] {
        // Row-1 hit blocked on bank 1 (busy until 100): requests a
        // retry at 100, which must supersede the pending one at 160.
        dram.access(addr_of_idx(5), false, [&] { d_done = ev.now(); });
    });
    ev.runAll();
    // Hit dispatches at 100: data ready 110, burst waits for the
    // channel bus (free at 74) -> done 112. Pre-fix it dispatched only
    // when the stale 160 retry fired, finishing at 172.
    EXPECT_EQ(d_done, 112u);
    // The bank-0 conflict is untouched either way: dispatch 160,
    // data ready 172, done 174.
    EXPECT_EQ(b_done, 174u);
}

TEST(DramTest, ManyAccessesAllComplete)
{
    EventQueue ev;
    DramModel dram(ev, testConfig());
    int completed = 0;
    const int total = 500;
    for (int i = 0; i < total; ++i)
        dram.access(static_cast<Addr>(i) * kCacheLineSize, i % 3 == 0,
                    [&] { ++completed; });
    ev.runAll();
    EXPECT_EQ(completed, total);
    EXPECT_EQ(dram.inFlight(), 0u);
    EXPECT_EQ(dram.stats().reads + dram.stats().writes,
              static_cast<std::uint64_t>(total));
}

TEST(DramTest, LatencyHistogramTracksAllRequests)
{
    EventQueue ev;
    DramModel dram(ev, testConfig());
    for (int i = 0; i < 20; ++i)
        dram.access(static_cast<Addr>(i) * 64 * kCacheLineSize, false, [] {});
    ev.runAll();
    EXPECT_EQ(dram.stats().latency.samples(), 20u);
    EXPECT_GE(dram.stats().latency.mean(), 10.0);
}

TEST(DramDeathTest, RefusesZeroChannels)
{
    DramConfig cfg = testConfig();
    cfg.channels = 0;
    EventQueue ev;
    EXPECT_DEATH(DramModel(ev, cfg), "config dram.channels: 0");
}

TEST(DramDeathTest, RefusesZeroBanks)
{
    DramConfig cfg = testConfig();
    cfg.banksPerChannel = 0;
    EventQueue ev;
    EXPECT_DEATH(DramModel(ev, cfg), "config dram.banksPerChannel: 0");
}

TEST(DramDeathTest, RefusesRowBelowLine)
{
    DramConfig cfg = testConfig();
    cfg.rowBytes = 32;
    EventQueue ev;
    EXPECT_DEATH(DramModel(ev, cfg),
                 "config dram.rowBytes: 32 is below the 128-byte line");
}

TEST(DramDeathTest, RefusesZeroSchedulerWindow)
{
    DramConfig cfg = testConfig();
    cfg.schedulerWindow = 0;
    EventQueue ev;
    EXPECT_DEATH(DramModel(ev, cfg), "config dram.schedulerWindow: 0");
}

/**
 * Reference FR-FCFS: DramModel's serial path as it was before the
 * per-bank window lists. Each channel queues whole requests in one
 * arrival-ordered deque, every dispatch scans its oldest
 * schedulerWindow entries and erases the pick from the middle. Line
 * interleave only; timing, retries and bulk copies as in the model.
 */
class ScanDram
{
  public:
    ScanDram(EventQueue &events, const DramConfig &config)
        : events_(events), config_(config), channels_(config.channels)
    {
        for (Channel &ch : channels_)
            ch.banks.assign(config_.banksPerChannel, Bank{});
    }

    void
    access(Addr addr, bool /*isWrite*/, SimCallback onDone)
    {
        const std::uint64_t line = addr / kCacheLineSize;
        const auto channel = static_cast<unsigned>(line % config_.channels);
        const std::uint64_t row_seq = line / config_.channels /
                                      (config_.rowBytes / kCacheLineSize);
        channels_[channel].queue.push_back(
            Request{events_.now(),
                    static_cast<unsigned>(row_seq % config_.banksPerChannel),
                    row_seq / config_.banksPerChannel, std::move(onDone)});
        tryDispatch(channel);
    }

    void
    bulkCopyPage(Addr src, Addr dst, bool inDramCopy, SimCallback onDone)
    {
        const unsigned src_channel = channelOf(src);
        const unsigned dst_channel = channelOf(dst);
        const bool same_channel = src_channel == dst_channel;
        const Cycles duration =
            inDramCopy && same_channel
                ? config_.bulkCopyInDramCycles
                : (kBasePageSize / kCacheLineSize) *
                      config_.bulkCopyViaBusCyclesPerLine;
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
        events_.schedule(done, std::move(onDone));
    }

    DramModel::Stats
    stats() const
    {
        DramModel::Stats s;
        s.rowHits = rowHits_;
        s.rowMisses = rowMisses_;
        return s;
    }

  private:
    struct Request
    {
        Cycles issued;
        unsigned bank;
        std::uint64_t row;
        SimCallback onDone;
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Cycles readyAt = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        std::deque<Request> queue;
        Cycles busFreeAt = 0;
        bool dispatchScheduled = false;
        Cycles dispatchAt = 0;
    };

    unsigned
    channelOf(Addr addr) const
    {
        return static_cast<unsigned>(addr / kCacheLineSize %
                                     config_.channels);
    }

    void
    scheduleDispatch(unsigned channelIdx, Cycles when)
    {
        Channel &channel = channels_[channelIdx];
        when = std::max(when, events_.now());
        if (channel.dispatchScheduled && channel.dispatchAt <= when)
            return;
        channel.dispatchScheduled = true;
        channel.dispatchAt = when;
        events_.schedule(when, [this, channelIdx, when] {
            Channel &channel = channels_[channelIdx];
            if (!channel.dispatchScheduled || channel.dispatchAt != when)
                return;
            channel.dispatchScheduled = false;
            tryDispatch(channelIdx);
        });
    }

    void
    tryDispatch(unsigned channelIdx)
    {
        Channel &channel = channels_[channelIdx];
        const Cycles now = events_.now();
        while (!channel.queue.empty()) {
            std::size_t pick = channel.queue.size();
            bool pick_is_hit = false;
            Cycles earliest_ready = std::numeric_limits<Cycles>::max();
            const std::size_t window =
                std::min(channel.queue.size(), config_.schedulerWindow);
            for (std::size_t i = 0; i < window; ++i) {
                const Request &cand = channel.queue[i];
                const Bank &bank = channel.banks[cand.bank];
                if (bank.readyAt > now) {
                    earliest_ready = std::min(earliest_ready, bank.readyAt);
                    continue;
                }
                if (bank.openRow == static_cast<std::int64_t>(cand.row)) {
                    pick = i;
                    pick_is_hit = true;
                    break;
                }
                if (pick == channel.queue.size())
                    pick = i;
            }
            if (pick == channel.queue.size()) {
                if (earliest_ready != std::numeric_limits<Cycles>::max())
                    scheduleDispatch(channelIdx, earliest_ready);
                return;
            }
            Request req = std::move(channel.queue[pick]);
            channel.queue.erase(channel.queue.begin() +
                                static_cast<std::ptrdiff_t>(pick));
            Bank &bank = channel.banks[req.bank];
            pick_is_hit ? ++rowHits_ : ++rowMisses_;
            const Cycles data_ready =
                now + (pick_is_hit ? config_.rowHitCycles
                                   : config_.rowMissCycles);
            const Cycles done =
                std::max(data_ready, channel.busFreeAt) + config_.burstCycles;
            channel.busFreeAt = done;
            bank.openRow = static_cast<std::int64_t>(req.row);
            bank.readyAt = now + (pick_is_hit ? config_.bankBusyHitCycles
                                              : config_.bankBusyMissCycles);
            events_.schedule(done, std::move(req.onDone));
        }
    }

    EventQueue &events_;
    DramConfig config_;
    std::vector<Channel> channels_;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

/** One scheduled operation of a differential run. */
struct DramOp
{
    Cycles at;
    bool bulk;
    Addr addr;  ///< access address, or bulk-copy source
    Addr dst;
    bool inDram;
};

/**
 * A seeded schedule over a few rows of every bank: short bursts and
 * idle gaps, bursts deeper than the window whose tail re-hits the
 * first request's row (row hits just beyond the window), and page
 * copies that push a channel's busFreeAt.
 */
std::vector<DramOp>
randomSchedule(const DramConfig &cfg, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t lines_per_row = cfg.rowBytes / kCacheLineSize;
    auto addr_of = [&](std::uint64_t channel, std::uint64_t bank,
                       std::uint64_t row, std::uint64_t col) {
        const std::uint64_t row_seq = row * cfg.banksPerChannel + bank;
        const std::uint64_t line =
            (row_seq * lines_per_row + col) * cfg.channels + channel;
        return static_cast<Addr>(line * kCacheLineSize);
    };
    const std::size_t deep = std::min<std::size_t>(cfg.schedulerWindow, 64);
    std::vector<DramOp> ops;
    Cycles at = 0;
    while (ops.size() < 600) {
        at += rng.chance(0.3) ? rng.below(200) : rng.below(3);
        if (rng.chance(0.05)) {
            const Addr src = rng.below(8) * kBasePageSize;
            const Addr dst = rng.below(8) * kBasePageSize;
            ops.push_back(DramOp{at, true, src, dst, rng.chance(0.5)});
            continue;
        }
        const std::size_t burst =
            rng.chance(0.15) ? deep + rng.between(1, 8) : rng.between(1, 4);
        const std::uint64_t channel = rng.below(cfg.channels);
        std::uint64_t first_bank = 0, first_row = 0;
        for (std::size_t i = 0; i < burst; ++i) {
            std::uint64_t bank = rng.below(cfg.banksPerChannel);
            std::uint64_t row = rng.below(4);
            if (i == 0) {
                first_bank = bank;
                first_row = row;
            } else if (burst > deep && i + 2 >= burst) {
                bank = first_bank;
                row = first_row;
            }
            ops.push_back(DramOp{at, false,
                                 addr_of(channel, bank, row,
                                         rng.below(lines_per_row)),
                                 0, false});
        }
    }
    return ops;
}

/** What a differential run observes: completions as (op index,
 *  cycle) in completion order, and the row hit and miss counters. */
struct DramRun
{
    std::vector<std::pair<std::size_t, Cycles>> completions;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
};

template <typename Model>
DramRun
runSchedule(const DramConfig &cfg, const std::vector<DramOp> &ops)
{
    EventQueue ev;
    Model model(ev, cfg);
    DramRun run;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ev.schedule(ops[i].at, [&, i] {
            SimCallback done = [&, i] {
                run.completions.emplace_back(i, ev.now());
            };
            if (ops[i].bulk)
                model.bulkCopyPage(ops[i].addr, ops[i].dst, ops[i].inDram,
                                   std::move(done));
            else
                model.access(ops[i].addr, false, std::move(done));
        });
    }
    ev.runAll();
    run.rowHits = model.stats().rowHits;
    run.rowMisses = model.stats().rowMisses;
    return run;
}

TEST(DramFrFcfsDifferentialTest, MatchesDequeScanOnRandomSchedules)
{
    const std::size_t windows[] = {1, 2, 7, 48, 1u << 20};
    const unsigned banks[] = {1, 2, 8};
    for (const std::size_t window : windows) {
        for (const unsigned bank_count : banks) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                DramConfig cfg = testConfig();
                cfg.channels = 3;  // pages map to every channel
                cfg.banksPerChannel = bank_count;
                cfg.schedulerWindow = window;
                // Seeds 3 and 4: equal hit/miss occupancy makes banks
                // free on the same cycle; seed 4 frees a hit's bank at
                // once, so one bank can dispatch twice in a cycle.
                if (seed >= 3) {
                    cfg.bankBusyHitCycles = seed == 4 ? 0 : 8;
                    cfg.bankBusyMissCycles = seed == 4 ? 0 : 8;
                }
                const std::vector<DramOp> ops = randomSchedule(
                    cfg, seed * 1000 + window * 10 + bank_count);
                const DramRun ref = runSchedule<ScanDram>(cfg, ops);
                const DramRun got = runSchedule<DramModel>(cfg, ops);
                SCOPED_TRACE("window " + std::to_string(window) + ", " +
                             std::to_string(bank_count) + " banks, seed " +
                             std::to_string(seed));
                ASSERT_EQ(ref.completions.size(), ops.size());
                ASSERT_EQ(got.completions.size(), ops.size());
                for (std::size_t i = 0; i < ops.size(); ++i) {
                    ASSERT_EQ(got.completions[i], ref.completions[i])
                        << "completion #" << i << " (op, cycle)";
                }
                EXPECT_EQ(got.rowHits, ref.rowHits);
                EXPECT_EQ(got.rowMisses, ref.rowMisses);
                EXPECT_GT(ref.rowHits, 0u);
            }
        }
    }
}

}  // namespace
}  // namespace mosaic
