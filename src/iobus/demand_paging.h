/**
 * @file
 * Demand-paging engine: turns far-faults into I/O-bus transfers.
 *
 * When a GPU thread touches a page that is not resident in GPU memory,
 * the SM raises a far-fault here. The pager deduplicates concurrent
 * faults to one transfer unit, queues a PCIe transfer at the active
 * memory manager's granularity (4KB base pages under Mosaic and the
 * baseline, 2MB under the large-page-only design), and, when the data
 * arrives, asks the manager to commit physical memory and install the
 * mapping before waking the faulting warps.
 */

#ifndef MOSAIC_IOBUS_DEMAND_PAGING_H
#define MOSAIC_IOBUS_DEMAND_PAGING_H

#include <algorithm>
#include <cstdint>
#include <functional>

#include "cache/mshr.h"
#include "common/log.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "engine/lane_router.h"
#include "iobus/pcie.h"
#include "mm/memory_manager.h"
#include "trace/tracer.h"
#include "vm/page_table.h"

namespace mosaic {

/** Demand-pager policy knobs. */
struct PagerConfig
{
    /**
     * Backoff before re-attempting backPage() after an OOM failure
     * (gives CAC reclaim / concurrent releases time to free capacity).
     * The delay grows linearly with the attempt number, capped at 8x.
     */
    Cycles oomRetryDelayCycles = 2000;
    /**
     * Bounded retry budget per fault. On exhaustion the fault stays
     * pending (its warps never wake on an unmapped VA); persistent OOM
     * thus surfaces as an idle-queue deadlock instead of silently
     * resuming warps with no mapping installed.
     */
    unsigned maxOomRetries = 64;
};

/** The far-fault handler. */
class DemandPager
{
  public:
    using Callback = std::function<void()>;

    /** Fault statistics. */
    struct Stats
    {
        std::uint64_t farFaults = 0;       ///< transfers initiated
        std::uint64_t mergedFaults = 0;    ///< faults merged into one
        std::uint64_t bytesTransferred = 0;
        std::uint64_t oomFaults = 0;       ///< backPage() ran out of memory
        std::uint64_t oomRetries = 0;      ///< backing re-attempts scheduled
        std::uint64_t prefetchedPages = 0;
    };

    /**
     * @param metrics when non-null, counters register under
     *                "iobus.paging.*" at construction (DESIGN.md §8).
     * @param tracer when non-null, each distinct far-fault records a
     *               span from fault to page-resident.
     * @param router when non-null, the pager runs under the sharded
     *               engine: the fault machinery (MSHR, PCIe bus, memory
     *               manager) is hub-side, so SM-raised faults cross
     *               lanes through the router and resolutions cross back.
     */
    DemandPager(EventQueue &events, PcieBus &bus, MemoryManager &manager,
                StatsRegistry *metrics = nullptr, Tracer *tracer = nullptr,
                const PagerConfig &config = {}, LaneRouter *router = nullptr)
        : events_(events), bus_(bus), manager_(manager), tracer_(tracer),
          config_(config), router_(router)
    {
        if (metrics != nullptr) {
            metrics->bindCounter("iobus.paging.farFaults", stats_.farFaults);
            metrics->bindCounter("iobus.paging.mergedFaults",
                                 stats_.mergedFaults);
            metrics->bindCounter("iobus.paging.bytesTransferred",
                                 stats_.bytesTransferred);
            metrics->bindCounter("iobus.paging.oomFaults", stats_.oomFaults);
            metrics->bindCounter("iobus.paging.oomRetries",
                                 stats_.oomRetries);
            metrics->bindCounter("iobus.paging.prefetchedPages",
                                 stats_.prefetchedPages);
        }
    }

    /**
     * Handles a far-fault raised by @p sm on @p va in @p pageTable's
     * address space. @p onResolved runs once the page is resident and
     * mapped -- back on @p sm's lane under the sharded engine.
     */
    void
    handleFarFault(SmId sm, PageTable &pageTable, Addr va,
                   Callback onResolved)
    {
        if (router_ == nullptr) {
            handleFarFault(pageTable, va, std::move(onResolved));
            return;
        }
        // Hop to the hub (fault machinery is hub-side); wrap the
        // resolution so the warp wakeup hops back to the SM's lane.
        router_->callHub(sm, [this, &pageTable, va, sm,
                              cb = std::move(onResolved)] {
            handleFarFault(pageTable, va, [this, sm, cb] {
                router_->callSm(sm, [cb] { cb(); });
            });
        });
    }

    /**
     * Serial-engine far-fault entry (also the hub-side body of the
     * routed overload above). Runs on the shared/hub queue.
     */
    void
    handleFarFault(PageTable &pageTable, Addr va, Callback onResolved)
    {
        const PageSize gran = manager_.transferGranularity();
        const AppId app = pageTable.appId();
        const std::uint64_t unit = gran == PageSize::Base
                                       ? basePageNumber(va)
                                       : largePageNumber(va);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(app) << 44) | unit;

        const auto outcome = faults_.registerMiss(key, std::move(onResolved));
        if (outcome != MshrFile::Outcome::NewMiss) {
            ++stats_.mergedFaults;
            return;
        }

        ++stats_.farFaults;
        const std::uint64_t bytes = pageBytes(gran);
        stats_.bytesTransferred += bytes;
        if (tracer_ != nullptr && tracer_->on(kTraceIo)) {
            // The MSHR guarantees one outstanding fault per key, so the
            // key doubles as the span id (no storage needed).
            tracer_->asyncBegin(kTraceIo, TraceTrack::Io, "farFault",
                                traceId(TraceIdSpace::Fault, key),
                                events_.now(),
                                {"app", static_cast<std::uint64_t>(app)},
                                {"bytes", bytes});
        }
        bus_.transfer(bytes, [this, app, va, key] {
            tryBackPage(app, va, key, /*attempt=*/0);
        });
    }

    /**
     * Eagerly backs every page of [vaBase, vaBase+bytes) (the no-demand-
     * paging configurations). With @p chargeBus the region moves over the
     * PCIe bus as one bulk transfer and @p onDone runs at completion;
     * otherwise the pages appear instantly ("no paging overhead").
     */
    void
    prefetchRegion(PageTable &pageTable, Addr vaBase, std::uint64_t bytes,
                   bool chargeBus, Callback onDone)
    {
        // Capture only what the lambda uses: a captured &pageTable would
        // dangle if the app tore down before the queued transfer lands.
        const AppId app = pageTable.appId();
        auto back_all = [this, app, vaBase, bytes] {
            for (Addr va = basePageBase(vaBase); va < vaBase + bytes;
                 va += kBasePageSize) {
                if (!manager_.backPage(app, va))
                    ++stats_.oomFaults;
                else
                    ++stats_.prefetchedPages;
            }
        };
        if (chargeBus) {
            stats_.bytesTransferred += bytes;
            bus_.transfer(bytes, [back_all = std::move(back_all),
                                  cb = std::move(onDone)] {
                back_all();
                cb();
            });
        } else {
            back_all();
            events_.scheduleAfter(0, std::move(onDone));
        }
    }

    /** Statistics. */
    const Stats &stats() const { return stats_; }

    /** Number of distinct in-flight far-faults. */
    std::size_t inFlight() const { return faults_.size(); }

    /** Checkpoint hook (DESIGN.md §14): a quiesce point drains every
     *  fault (an abandoned-OOM fault would be an unserializable
     *  continuation — asserted), so only the counters cross. */
    void
    serialize(ckpt::Archive &ar)
    {
        MOSAIC_ASSERT(ar.loading() || faults_.size() == 0,
                      "checkpointing a pager with in-flight far-faults "
                      "(an abandoned-OOM fault cannot be serialized)");
        ar.io(stats_.farFaults);
        ar.io(stats_.mergedFaults);
        ar.io(stats_.bytesTransferred);
        ar.io(stats_.oomFaults);
        ar.io(stats_.oomRetries);
        ar.io(stats_.prefetchedPages);
    }

  private:
    /**
     * Attempts to commit physical memory for a fault whose data already
     * crossed the bus. The MSHR is filled -- waking the faulting warps --
     * only once a mapping exists. On OOM the attempt is retried after a
     * backoff (the data stays buffered; no PCIe transfer is repeated);
     * past the retry budget the fault is abandoned still-pending so no
     * warp ever resumes on an unmapped VA.
     */
    void
    tryBackPage(AppId app, Addr va, std::uint64_t key, unsigned attempt)
    {
        const bool backed = manager_.backPage(app, va);
        if (backed) {
            if (tracer_ != nullptr && tracer_->on(kTraceIo)) {
                tracer_->asyncEnd(kTraceIo, TraceTrack::Io, "farFault",
                                  traceId(TraceIdSpace::Fault, key),
                                  events_.now(), {"oom", 0u});
            }
            faults_.fill(key);
            return;
        }

        if (attempt == 0) {
            ++stats_.oomFaults;
            MOSAIC_WARN_EVERY(1024, events_.now(),
                              "far-fault could not be backed: GPU "
                              "memory exhausted; retrying");
        }
        if (attempt >= config_.maxOomRetries) {
            MOSAIC_WARN_EVERY(64, events_.now(),
                              "far-fault abandoned after retry budget: "
                              "fault stays pending (persistent OOM)");
            if (tracer_ != nullptr && tracer_->on(kTraceIo)) {
                tracer_->asyncEnd(kTraceIo, TraceTrack::Io, "farFault",
                                  traceId(TraceIdSpace::Fault, key),
                                  events_.now(), {"oom", 1u});
            }
            return;
        }

        ++stats_.oomRetries;
        const Cycles scale = std::min<Cycles>(attempt + 1, 8);
        events_.scheduleAfter(config_.oomRetryDelayCycles * scale,
                              [this, app, va, key, attempt] {
            tryBackPage(app, va, key, attempt + 1);
        });
    }

    EventQueue &events_;
    PcieBus &bus_;
    MemoryManager &manager_;
    Tracer *tracer_;
    PagerConfig config_;
    LaneRouter *router_ = nullptr;
    MshrFile faults_;
    Stats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_IOBUS_DEMAND_PAGING_H
