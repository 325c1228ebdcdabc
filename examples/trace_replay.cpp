/**
 * @file
 * Trace replay: drives the simulated machine below runSimulation(). A
 * small per-warp memory trace (inline here; TraceFile::load reads the
 * same format from disk) runs on one SM of a Machine -- the hardware
 * runSimulation() builds: translation service, caches, DRAM, demand
 * pager, and the Mosaic memory manager -- and the example prints what
 * the memory system did.
 *
 * Usage: trace_replay [trace-file]
 */

#include <cstdio>
#include <sstream>

#include "runner/system.h"
#include "workload/trace_stream.h"

int
main(int argc, char **argv)
{
    using namespace mosaic;

    // A trace touching two 2MB chunks: warp 0 streams, warp 1 strides.
    std::shared_ptr<TraceFile> trace;
    if (argc > 1) {
        trace = TraceFile::load(argv[1]);
    } else {
        std::ostringstream t;
        t << "# generated inline\n";
        for (unsigned w = 0; w < 2; ++w) {
            t << "W " << w << "\n";
            for (unsigned i = 0; i < 2000; ++i) {
                t << "C 4\n";
                const Addr va = 0x10000000000ull +
                                (w * kLargePageSize) +
                                (i * 577ull * kCacheLineSize) %
                                    kLargePageSize;
                t << (i % 4 == 0 ? "S " : "L ") << std::hex << va
                  << std::dec << "\n";
            }
        }
        std::istringstream in(t.str());
        trace = TraceFile::parse(in);
    }
    std::printf("trace: %zu warps, %llu instructions\n", trace->numWarps(),
                static_cast<unsigned long long>(
                    trace->totalInstructions()));

    // One SM running Mosaic over 1 GB of frames, with the 64 MB
    // page-table pool above them and I/O time compressed 16x (see
    // DESIGN.md, "Substitutions").
    SimConfig config = SimConfig::mosaicDefault().withIoCompression(16);
    config.gpu.numSms = 1;
    config.dram.capacityBytes = (1ull << 30) + config.pageTablePoolBytes;
    Machine machine(config, 1, 0);

    // The trace's en masse allocation: both chunks in one region.
    machine.manager->reserveRegion(0, 0x10000000000ull, 2 * kLargePageSize);

    Gpu &gpu = machine.gpu;
    bool done = false;
    const SmId sm =
        gpu.createSm(*machine.pageTables[0], machine.translation,
                     machine.caches, &machine.pager, [&] { done = true; });
    for (std::size_t w = 0; w < trace->numWarps(); ++w)
        gpu.sm(sm).addWarp(std::make_unique<TraceWarpStream>(trace, w));

    gpu.startAll(0);
    while (!done && machine.events().runOne()) {
    }

    const auto &stats = gpu.sm(sm).stats();
    std::printf("finished at cycle %llu: %llu instructions "
                "(%llu memory), IPC %.3f\n",
                static_cast<unsigned long long>(stats.finishedAt),
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.memInstructions),
                double(stats.instructions) /
                    double(std::max<Cycles>(1, stats.finishedAt)));
    std::printf("translation: %llu walks, L1 TLB hit %.1f%%, coalesced "
                "%llu frames\n",
                static_cast<unsigned long long>(machine.walker.stats().walks),
                100.0 * double(machine.translation.stats().l1Hits) /
                    double(machine.translation.stats().requests),
                static_cast<unsigned long long>(
                    machine.manager->stats().coalesceOps));
    std::printf("paging: %llu far-faults (%llu KB over PCIe)\n",
                static_cast<unsigned long long>(
                    machine.pager.stats().farFaults),
                static_cast<unsigned long long>(
                    machine.pager.stats().bytesTransferred >> 10));
    return 0;
}
