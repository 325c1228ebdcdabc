/**
 * @file
 * System I/O (PCIe) bus model for CPU->GPU page transfers.
 *
 * Calibrated to the paper's GTX 1080 measurements (§3.2): the load-to-use
 * latency of a far-fault is 55us for a 4KB page and 318us for a 2MB page.
 * Solving both anchors gives a fixed per-fault overhead of ~54.5us (fault
 * handling, runtime, link turnaround -- does not occupy the data bus) and
 * an effective data bandwidth of ~8GB/s that transfers serialize on.
 */

#ifndef MOSAIC_IOBUS_PCIE_H
#define MOSAIC_IOBUS_PCIE_H

#include <cstdint>
#include <functional>

#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "trace/tracer.h"

namespace mosaic {

/** PCIe bus timing parameters (GPU core cycles at 1020MHz). */
struct PcieConfig
{
    /** Fixed per-transfer overhead that overlaps across transfers. */
    Cycles fixedOverheadCycles = 55590;  // ~54.5us
    /** Data bytes moved per GPU cycle while the bus is busy. */
    double bytesPerCycle = 7.8;          // ~8GB/s effective
};

/** The shared, serializing system I/O bus. */
class PcieBus
{
  public:
    using Callback = std::function<void()>;

    /** Transfer statistics. */
    struct Stats
    {
        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        std::uint64_t busBusyCycles = 0;
        Histogram latency{4096, 128};  ///< request-to-done per transfer
    };

    /**
     * @param metrics when non-null, counters register under
     *                "iobus.pcie.*" at construction (DESIGN.md §8).
     * @param tracer when non-null, each transfer records a span from
     *               request to data-usable.
     */
    PcieBus(EventQueue &events, const PcieConfig &config,
            StatsRegistry *metrics = nullptr, Tracer *tracer = nullptr)
        : events_(events), config_(config), tracer_(tracer)
    {
        if (metrics != nullptr) {
            metrics->bindCounter("iobus.pcie.transfers", stats_.transfers);
            metrics->bindCounter("iobus.pcie.bytes", stats_.bytes);
            metrics->bindCounter("iobus.pcie.busBusyCycles",
                                 stats_.busBusyCycles);
            metrics->bindHistogram("iobus.pcie.latency", stats_.latency);
        }
    }

    /**
     * Queues a host-to-device transfer of @p bytes; @p onDone runs when
     * the data is usable on the GPU. Transfers serialize on the data bus
     * but their fixed overheads overlap.
     */
    void
    transfer(std::uint64_t bytes, Callback onDone)
    {
        const Cycles now = events_.now();
        const auto busy = static_cast<Cycles>(
            static_cast<double>(bytes) / config_.bytesPerCycle);
        const Cycles start = std::max(now, busFreeAt_);
        busFreeAt_ = start + busy;
        const Cycles done = start + busy + config_.fixedOverheadCycles;

        ++stats_.transfers;
        stats_.bytes += bytes;
        stats_.busBusyCycles += busy;
        stats_.latency.record(done - now);
        if (tracer_ != nullptr && tracer_->on(kTraceIo)) {
            // The whole timing resolves here, so both edges record now;
            // the exporter orders events by timestamp.
            const std::uint64_t id =
                traceId(TraceIdSpace::Pcie, stats_.transfers);
            tracer_->asyncBegin(kTraceIo, TraceTrack::Io, "pcie.transfer",
                                id, now, {"bytes", bytes},
                                {"queuedCycles", start - now});
            tracer_->asyncEnd(kTraceIo, TraceTrack::Io, "pcie.transfer",
                              id, done);
        }
        events_.schedule(done, std::move(onDone));
    }

    /** Time at which the data bus next becomes free. */
    Cycles busFreeAt() const { return busFreeAt_; }

    /** Statistics. */
    const Stats &stats() const { return stats_; }

    /** Configuration. */
    const PcieConfig &config() const { return config_; }

    /** Checkpoint hook (DESIGN.md §14): the bus holds no queue of its
     *  own — in-flight transfers live as scheduled completion events, so
     *  only the bus-free time and counters cross a checkpoint. */
    void
    serialize(ckpt::Archive &ar)
    {
        ar.io(busFreeAt_);
        ar.io(stats_.transfers);
        ar.io(stats_.bytes);
        ar.io(stats_.busBusyCycles);
        ar.io(stats_.latency);
    }

  private:
    EventQueue &events_;
    PcieConfig config_;
    Tracer *tracer_;
    Cycles busFreeAt_ = 0;
    Stats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_IOBUS_PCIE_H
