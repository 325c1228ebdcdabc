/**
 * @file
 * Assembles a full system from a SimConfig and a Workload and runs it.
 */

#ifndef MOSAIC_RUNNER_SIMULATION_H
#define MOSAIC_RUNNER_SIMULATION_H

#include <memory>
#include <string>
#include <vector>

#include "common/stats_registry.h"
#include "engine/engine_profile.h"
#include "runner/sim_config.h"
#include "trace/trace_mux.h"
#include "trace/tracer.h"
#include "workload/workload.h"

namespace mosaic {

/** Per-application outcome of a simulation. */
struct AppResult
{
    std::string name;
    unsigned smCount = 0;
    std::uint64_t instructions = 0;
    Cycles finishCycle = 0;
    double ipc = 0.0;
    std::uint64_t farFaultStalls = 0;
    /** This application's own L1-TLB-hit fraction (interference view). */
    double l1TlbHitRate = 0.0;
    /** Page walks this application's translations caused. */
    std::uint64_t pageWalks = 0;
};

/** Everything a simulation reports. */
struct SimResult
{
    std::string configLabel;
    std::string workloadName;
    std::vector<AppResult> apps;
    Cycles totalCycles = 0;

    /**
     * Generic end-of-run capture of every metric the simulation's
     * StatsRegistry knows about, keyed by dotted path (DESIGN.md §8).
     * The scalar fields below are *derived* from this snapshot and kept
     * for source compatibility -- new metrics need no new fields here.
     */
    MetricsSnapshot metrics;

    /** Interval snapshots (SimConfig::metricsSamplePeriod > 0 only). */
    std::vector<MetricsSnapshot> metricsSamples;

    /**
     * The run's event trace (SimConfig::trace.enabled only; otherwise
     * null). Shared so results stay cheaply copyable; export with
     * trace/trace_export.h. Serial runs hold one ring; sharded runs
     * hold one ring per lane, merged deterministically at export.
     */
    std::shared_ptr<TraceMux> trace;

    /**
     * The sharded engine's self-profile (engineShards > 0 only;
     * default-initialized zeros otherwise). Wall-clock figures in here
     * are host-dependent and deliberately excluded from `metrics`.
     */
    EngineShardProfile engineShard;

    double l1TlbHitRate = 0.0;
    double l2TlbHitRate = 0.0;
    std::uint64_t pageWalks = 0;
    double avgWalkLatency = 0.0;

    std::uint64_t farFaults = 0;
    std::uint64_t pagedBytes = 0;

    MemoryManagerStats mm;
    std::uint64_t allocatedBytes = 0;   ///< physical memory held at peak
    std::uint64_t neededBytes = 0;      ///< 4KB-granularity demand
    /** Peak bytes locked as holes inside coalesced frames (Mosaic). */
    std::uint64_t coalescedHoleBytes = 0;

    double l1CacheHitRate = 0.0;
    double l2CacheHitRate = 0.0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    Cycles gpuStallCycles = 0;          ///< CAC whole-device stalls

    /** Sum of per-app IPCs (single number for 1-app runs). */
    double
    totalIpc() const
    {
        double total = 0.0;
        for (const AppResult &app : apps)
            total += app.ipc;
        return total;
    }
};

/**
 * Runs @p workload under @p config to completion.
 *
 * Thread-safe: safe to call concurrently from multiple threads (each
 * call builds a private EventQueue and system; there are no shared
 * mutable globals -- see DESIGN.md, "Thread-safety contract"). A given
 * (workload, config, seed) always produces the same SimResult.
 */
SimResult runSimulation(const Workload &workload, const SimConfig &config);

/**
 * IPCs of each application of @p workload running alone (no sharing) on
 * the same SM partition sizes, under the baseline GPU-MMU configuration
 * with paging disabled-overhead -- the paper's IPC_alone denominator.
 * Results are memoized per alone-run fingerprint (every knob of the
 * alone run's workload and config that changes which events run); the
 * memo is mutex-guarded, so this is safe to call concurrently.
 */
std::vector<double> aloneIpcs(const Workload &workload,
                              const SimConfig &sharedConfig);

/** Weighted speedup of @p result against aloneIpcs(). */
double weightedSpeedupOf(const SimResult &result,
                         const std::vector<double> &alone);

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_SIMULATION_H
