/**
 * @file
 * Google-benchmark microbenchmarks of the discrete-event engine's hot
 * path: events/sec through schedule+dispatch of 32-byte captures and of
 * a self-rescheduling chain, the runUntil batch path, and the reserve()
 * capacity hint.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "engine/event_queue.h"

namespace {

using namespace mosaic;

/**
 * A 32-byte capture, as simulator callbacks routinely carry (component
 * pointer + ids + counters): inline in SimCallback's buffer, though
 * beyond std::function's 16-byte one.
 */
struct FatPayload
{
    std::uint64_t *sink;
    std::uint64_t a, b, c;
};

template <typename Queue>
void
drainFatEvents(benchmark::State &state)
{
    constexpr int kEvents = 4096;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Queue q;
        for (int i = 0; i < kEvents; ++i) {
            const FatPayload p{&sum, std::uint64_t(i), 2, 3};
            q.schedule(static_cast<Cycles>(i),
                       [p] { *p.sink += p.a + p.b + p.c; });
        }
        state.ResumeTiming();
        q.runAll();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}

/** Dispatch: move the callback out of its slab slot. */
void
BM_DispatchFatMovePop(benchmark::State &state)
{
    drainFatEvents<EventQueue>(state);
}
BENCHMARK(BM_DispatchFatMovePop);

/**
 * Self-rescheduling chain (the steady-state shape of warp/DRAM/walker
 * ticks): events/sec through schedule+dispatch with a live queue.
 */
template <typename Queue>
void
pingPongChain(benchmark::State &state)
{
    const auto depth = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        Queue q;
        std::uint64_t sum = 0;
        std::uint64_t remaining = depth;
        std::function<void()> tick = [&] {
            sum += remaining;
            if (--remaining > 0)
                q.scheduleAfter(1, tick);
        };
        q.schedule(0, tick);
        q.runAll();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(depth));
}

void
BM_ChainMovePop(benchmark::State &state)
{
    pingPongChain<EventQueue>(state);
}
BENCHMARK(BM_ChainMovePop)->Arg(10000);

/** runUntil batch dispatch (one nextEventAt() check per pop). */
void
BM_RunUntilBatch(benchmark::State &state)
{
    constexpr int kEvents = 4096;
    std::uint64_t sum = 0;
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue q;
        for (int i = 0; i < kEvents; ++i) {
            const FatPayload p{&sum, std::uint64_t(i), 2, 3};
            q.schedule(static_cast<Cycles>(i),
                       [p] { *p.sink += p.a + p.b + p.c; });
        }
        state.ResumeTiming();
        q.runUntil(kEvents);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_RunUntilBatch);

/** Bulk schedule with and without the reserve() capacity hint. */
void
BM_ScheduleBurst(benchmark::State &state)
{
    const bool reserve = state.range(0) != 0;
    constexpr int kEvents = 65536;
    for (auto _ : state) {
        EventQueue q;
        if (reserve)
            q.reserve(kEvents);
        for (int i = 0; i < kEvents; ++i)
            q.schedule(static_cast<Cycles>(i), [] {});
        benchmark::DoNotOptimize(q.pending());
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ScheduleBurst)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("reserve")
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
