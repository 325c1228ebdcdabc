/**
 * @file
 * EngineShardProfile: the sharded engine's self-profile, harvested once
 * at the end of a run (SimResult::engineShard).
 *
 * Two kinds of figures live here, with different determinism contracts:
 *
 *  - *Simulated* figures (lanes, epochs, per-lane event counts, hub
 *    traffic, window jumps) are pure functions of the simulation and are
 *    byte-identical for every worker count N >= 1. These are also
 *    registered in the StatsRegistry under `engine.shard.*`.
 *
 *  - *Wall-clock* figures (phase times, per-worker busy time, barrier
 *    wait share) describe the host execution and naturally vary run to
 *    run. They are deliberately NOT registered in the StatsRegistry --
 *    snapshots must stay byte-identical across worker counts -- and are
 *    only reachable through this struct (bench/shard_scaling records
 *    them into BENCH_shard.json).
 *
 * This is the measurement behind ROADMAP 6(b): `hubOccupancy` near 1.0
 * with low worker utilization says the single hub lane bounds speedup
 * and is worth sharding next.
 */

#ifndef MOSAIC_ENGINE_ENGINE_PROFILE_H
#define MOSAIC_ENGINE_ENGINE_PROFILE_H

#include <cstdint>
#include <vector>

namespace mosaic {

/** End-of-run self-profile of one ShardedEngine (empty when serial). */
struct EngineShardProfile
{
    // --- simulated (deterministic, worker-count independent) ---------
    std::uint64_t lanes = 0;          ///< SM lanes (excludes the hub)
    std::uint64_t epochs = 0;         ///< windows executed
    std::uint64_t windowJumps = 0;    ///< idle multi-window skips taken
    std::uint64_t jumpedCycles = 0;   ///< cycles skipped by those jumps
    std::uint64_t hubEvents = 0;      ///< events the hub lane dispatched
    std::uint64_t hubInMsgs = 0;      ///< SM->hub messages merged
    std::uint64_t hubToSmTimed = 0;   ///< hub->SM timed deliveries
    std::uint64_t hubToSmDeferred = 0;  ///< hub->SM window-edge calls
    std::uint64_t hubBusyWindows = 0;   ///< windows with hub dispatches
    std::vector<std::uint64_t> laneEvents;       ///< per SM lane
    std::vector<std::uint64_t> laneOutMsgs;      ///< per SM lane
    std::vector<std::uint64_t> laneBusyWindows;  ///< per SM lane

    /**
     * hubBusyWindows / epochs: share of windows the *control* sub-lane
     * worked in. With hub sub-lanes enabled (ROADMAP 6(b)) the DRAM
     * channels and their L2 banks run on the per-channel sub-lanes
     * below, so this measures only the residual serial hub work.
     */
    double hubOccupancy = 0.0;

    /** Hub sub-lanes (one per DRAM channel); 0 = single-lane hub. */
    std::uint64_t hubSubLanes = 0;
    std::vector<std::uint64_t> subEvents;       ///< per hub sub-lane
    std::vector<std::uint64_t> subOutMsgs;      ///< per hub sub-lane
    std::vector<std::uint64_t> subBusyWindows;  ///< per hub sub-lane
    /** Per sub-lane busyWindows / epochs. */
    std::vector<double> subOccupancy;

    // --- wall-clock (host-dependent; bench-only) ---------------------
    std::uint64_t workers = 0;     ///< configured pool, incl. coordinator
    /**
     * Parallel phases (SM and sub) handed to the worker pool, and those
     * run on the coordinator because every lane with an event due
     * belonged to one thread (fewer than two such lanes, or workers ==
     * 1). They sum to the phases run, but the split depends on the
     * worker count, so neither is in the snapshot.
     */
    std::uint64_t pooledPhases = 0;
    std::uint64_t inlinePhases = 0;
    double wallSmPhaseSec = 0.0;   ///< total SM-phase wall time
    double wallHubSec = 0.0;       ///< total control-phase wall time
    double wallSubPhaseSec = 0.0;  ///< total sub-phase wall time
    double wallExchangeSec = 0.0;  ///< barrier + merge + delivery time
    std::vector<double> workerBusySec;  ///< [0]=coordinator, [i]=thread i

    /**
     * sum(workerBusySec) / (workers * (wallSmPhaseSec +
     * wallSubPhaseSec)), in [0, 1]: how full the pool ran during the
     * parallel phases.
     */
    double workerUtilization = 0.0;

    /** 1 - workerUtilization: share of parallel-phase time waiting. */
    double barrierWaitShare = 0.0;
};

}  // namespace mosaic

#endif  // MOSAIC_ENGINE_ENGINE_PROFILE_H
