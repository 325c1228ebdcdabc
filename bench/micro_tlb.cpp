/**
 * @file
 * Google-benchmark microbenchmarks of the translation machinery: TLB
 * lookups/fills, functional page-table translation, walk-path
 * computation, and raw event-queue throughput.
 */

#include <benchmark/benchmark.h>

#include "engine/event_queue.h"
#include "vm/page_table.h"
#include "vm/tlb.h"

namespace {

using namespace mosaic;

void
BM_TlbLookupHit(benchmark::State &state)
{
    TlbConfig cfg;
    cfg.baseEntries = static_cast<std::size_t>(state.range(0));
    Tlb tlb(cfg);
    for (std::uint64_t v = 0; v < cfg.baseEntries; ++v)
        tlb.fill(0, 0, v);
    std::uint64_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(0, 0, v % cfg.baseEntries));
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit)->Arg(128)->Arg(512);

void
BM_TlbFillEvictCycle(benchmark::State &state)
{
    TlbConfig cfg;
    cfg.baseEntries = 128;
    Tlb tlb(cfg);
    std::uint64_t v = 0;
    for (auto _ : state) {
        if (!tlb.lookup(0, 0, v))
            tlb.fill(0, 0, v);
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbFillEvictCycle);

void
BM_PageTableTranslate(benchmark::State &state)
{
    RegionPtNodeAllocator alloc(1ull << 33, 256ull << 20);
    PageTable pt(0, alloc);
    const Addr va = 1ull << 40;
    for (std::uint64_t i = 0; i < 4096; ++i)
        pt.mapBasePage(va + i * kBasePageSize, i * kBasePageSize);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.translate(va + (i % 4096) * kBasePageSize));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableTranslate);

void
BM_PageTableCoalesceSplinter(benchmark::State &state)
{
    RegionPtNodeAllocator alloc(1ull << 33, 256ull << 20);
    PageTable pt(0, alloc);
    const Addr va = 1ull << 40;
    for (std::uint64_t i = 0; i < kBasePagesPerLargePage; ++i)
        pt.mapBasePage(va + i * kBasePageSize,
                       (1ull << 30) + i * kBasePageSize);
    for (auto _ : state) {
        pt.coalesce(va);
        pt.splinter(va);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PageTableCoalesceSplinter);

void
BM_WalkPath(benchmark::State &state)
{
    RegionPtNodeAllocator alloc(1ull << 33, 256ull << 20);
    PageTable pt(0, alloc);
    pt.mapBasePage(1ull << 40, 0x1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(pt.walkPath(1ull << 40));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkPath);

void
BM_EventQueueThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sum = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Cycles>(i), [&sum, i] { sum += i; });
        q.runAll();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
