/**
 * @file
 * Sharded-engine scaling curve: wall-clock throughput of one pinned
 * fig09-style heterogeneous cell at worker counts {serial, 1, 2, 4, 8}.
 *
 * Emits BENCH_shard.json: one record per worker count with wall
 * seconds, simulated cycles, simulated cycles per wall second, the
 * speedup over the serial engine, and the engine self-profile
 * (including how many phases ran on the worker pool vs inline). The result snapshots are checked for
 * worker-count invariance while measuring, so the numbers can never
 * come from a run that silently diverged.
 *
 * The host core count is recorded alongside: on a single-core container
 * the curve is flat or worse (epoch barriers cost without parallel SM
 * phases to pay for them) and the record says so -- scaling claims are
 * only meaningful when host_cores >= the worker count.
 *
 * Usage: shard_scaling [output.json]   (default BENCH_shard.json)
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/json_report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

using namespace mosaic;

namespace {

/** Same pinned cell as the golden/shard determinism tests. */
Workload
pinnedWorkload()
{
    Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    return w;
}

struct Sample
{
    unsigned shards = 0;  ///< 0 = serial engine
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;
    std::string snapshot;
    EngineShardProfile profile;  ///< zeros for the serial engine
};

Sample
measure(unsigned shards)
{
    SimConfig config = SimConfig::mosaicDefault().withIoCompression(16.0);
    config.gpu.sm.warpsPerSm = 8;
    config.engineShards = shards;

    const Workload w = pinnedWorkload();
    const auto begin = std::chrono::steady_clock::now();
    const SimResult result = runSimulation(w, config);
    const auto end = std::chrono::steady_clock::now();

    Sample s;
    s.shards = shards;
    s.wallSeconds = std::chrono::duration<double>(end - begin).count();
    s.simCycles = result.totalCycles;
    s.snapshot = metricsToJson(result, managerKindName(config.manager));
    s.profile = result.engineShard;
    return s;
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";
    const std::vector<unsigned> counts = {0, 1, 2, 4, 8};

    std::vector<Sample> samples;
    for (const unsigned n : counts) {
        // Warm-up pass first so page-cache/allocator effects do not
        // penalize whichever configuration happens to run first.
        measure(n);
        samples.push_back(measure(n));
        std::printf("shards=%u: %.3fs wall, %llu sim cycles (%.3g "
                    "cycles/s)\n",
                    n, samples.back().wallSeconds,
                    static_cast<unsigned long long>(samples.back().simCycles),
                    double(samples.back().simCycles) /
                        samples.back().wallSeconds);
    }

    // Worker-count invariance while we are here: every sharded snapshot
    // must match the 1-worker snapshot byte-for-byte.
    const std::string &sharded_ref = samples[1].snapshot;
    for (std::size_t i = 2; i < samples.size(); ++i) {
        if (samples[i].snapshot != sharded_ref) {
            std::fprintf(stderr,
                         "shard_scaling: snapshot at %u workers diverges "
                         "from 1 worker -- refusing to record numbers\n",
                         samples[i].shards);
            return 1;
        }
    }

    const double serial_wall = samples[0].wallSeconds;
    const unsigned host_cores = std::thread::hardware_concurrency();

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "shard_scaling: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"shard_scaling\",\n"
        << "  \"cell\": \"het:2:42 scale=0.08 instr=300 warps=8 "
           "io-compression=16 mosaic\",\n"
        << "  \"host_cores\": " << host_cores << ",\n"
        << "  \"note\": \"speedup_vs_serial is only meaningful when "
           "host_cores >= shards; on fewer cores the pool parks between "
           "phases and every pooled phase pays kernel wake-ups. "
           "pooled_phases counts the SM and sub phases whose busy lanes "
           "spanned two or more threads; the rest ran inline on the "
           "coordinator\",\n"
        << "  \"runs\": [\n";
    // Each sharded run carries its engine self-profile (DESIGN.md §12):
    // hub occupancy answers "is the hub the bottleneck?" from the
    // simulated side; worker utilization / barrier-wait share answer it
    // from the wall-clock side on this host, and the pooled/inline
    // phase counts say how often a phase had lanes for more than one
    // thread at all.
    char buf[640];
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        // Per-DRAM-channel sub-lane occupancy (hub sub-lanes, DESIGN.md
        // §12): together with hub_occupancy (the *control* sub-lane)
        // this attributes how much of the former hub serialization now
        // runs in the parallel sub phase.
        std::string subs = "[";
        for (std::size_t c = 0; c < s.profile.subOccupancy.size(); ++c) {
            std::snprintf(buf, sizeof buf, "%s%.4f", c > 0 ? ", " : "",
                          s.profile.subOccupancy[c]);
            subs += buf;
        }
        subs += "]";
        std::snprintf(buf, sizeof buf,
                      "    {\"shards\": %u, \"wall_seconds\": %.4f, "
                      "\"sim_cycles\": %llu, "
                      "\"sim_cycles_per_second\": %.4g, "
                      "\"speedup_vs_serial\": %.3f, "
                      "\"hub_occupancy\": %.4f, "
                      "\"sub_occupancy\": %s, "
                      "\"worker_utilization\": %.4f, "
                      "\"barrier_wait_share\": %.4f, "
                      "\"pooled_phases\": %llu, "
                      "\"inline_phases\": %llu}%s\n",
                      s.shards, s.wallSeconds,
                      static_cast<unsigned long long>(s.simCycles),
                      double(s.simCycles) / s.wallSeconds,
                      serial_wall / s.wallSeconds, s.profile.hubOccupancy,
                      subs.c_str(),
                      s.profile.workerUtilization,
                      s.profile.barrierWaitShare,
                      static_cast<unsigned long long>(
                          s.profile.pooledPhases),
                      static_cast<unsigned long long>(
                          s.profile.inlinePhases),
                      i + 1 < samples.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::printf("shard scaling written to %s (host_cores=%u)\n",
                out_path.c_str(), host_cores);
    return 0;
}
