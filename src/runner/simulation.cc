#include "runner/simulation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "common/parse_num.h"
#include "runner/sweep.h"
#include "runner/system.h"
#include "workload/metrics.h"

namespace mosaic {

namespace {

/**
 * Effective sharded-engine worker count: the config field wins; the
 * MOSAIC_SIM_SHARDS environment variable is the no-recompile override
 * for configs that leave it at 0. 0 = classic serial engine.
 *
 * Core-budget sharing: when a SweepRunner pool is fanning simulations
 * out in parallel, the requested worker count is clamped so that
 * sweep jobs x engine shards stays within the machine. Precedence is
 * sweep-first (independent simulations scale better than shard
 * workers), and the clamp floors at 1 so a sharded config never
 * degrades to the serial engine -- worker count only changes
 * wall-clock time, never results, so clamping is determinism-safe.
 */
unsigned
resolveEngineShards(const SimConfig &config)
{
    unsigned n = config.engineShards;
    if (n == 0) {
        if (const char *env = std::getenv("MOSAIC_SIM_SHARDS")) {
            std::uint64_t parsed = 0;
            if (parseU64(env, &parsed) && parsed <= 256) {
                n = static_cast<unsigned>(parsed);
            } else if (*env != '\0') {
                // atoi used to turn garbage into a silent 0 here; say so
                // once instead, and keep the serial engine.
                std::fprintf(stderr,
                             "MOSAIC_SIM_SHARDS: invalid value '%s' "
                             "(want an integer in [0, 256]); ignored\n",
                             env);
            }
        }
    }
    const unsigned sweep_threads = activeSweepThreads();
    if (n > 1 && sweep_threads > 1) {
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        n = std::max(1u, std::min(n, hw / sweep_threads));
    }
    return n;
}

}  // namespace

SimResult
runSimulation(const Workload &workload, const SimConfig &config)
{
    System system(workload, config, resolveEngineShards(config));
    system.run();
    return system.harvest();
}

std::vector<double>
aloneIpcs(const Workload &workload, const SimConfig &sharedConfig)
{
    // Memoized across calls: benchmark sweeps reuse the same denominators
    // for dozens of configurations. SweepRunner calls this concurrently,
    // so the memo is mutex-guarded; the alone-run itself executes outside
    // the lock (two threads may race to compute the same key, but the
    // value is a deterministic function of the key, so either write is
    // correct -- we trade a rare duplicated run for not serializing every
    // memoized lookup behind a multi-second simulation).
    static std::mutex cache_mutex;
    static std::map<std::uint64_t, double> cache;  // guarded by cache_mutex

    const auto shares = Gpu::partitionSms(
        sharedConfig.gpu.numSms,
        static_cast<unsigned>(workload.apps.size()));

    std::vector<double> ipcs;
    for (std::size_t i = 0; i < workload.apps.size(); ++i) {
        const AppParams &app = workload.apps[i];
        // The denominator runs under the baseline memory manager and
        // TLB, but inherits the shared run's substrate (GPU, caches,
        // DRAM, I/O bus, paging mode) so the ratio isolates sharing.
        SimConfig alone_cfg = SimConfig::baseline();
        alone_cfg.gpu = sharedConfig.gpu;
        alone_cfg.gpu.numSms = shares[i];
        alone_cfg.caches = sharedConfig.caches;
        alone_cfg.dram = sharedConfig.dram;
        alone_cfg.pcie = sharedConfig.pcie;
        alone_cfg.walker = sharedConfig.walker;
        alone_cfg.demandPaging = sharedConfig.demandPaging;
        alone_cfg.chargePrefetchBus = sharedConfig.chargePrefetchBus;
        alone_cfg.seed = sharedConfig.seed;
        // The denominator must use the same engine (serial vs sharded)
        // as the shared run: the sharded engine's bounded completion
        // drift makes it a distinct timing model.
        alone_cfg.engineShards = sharedConfig.engineShards;
        Workload alone_wl;
        alone_wl.name = app.name + "-alone";
        alone_wl.apps.push_back(app);

        // The memo key is the alone run's simulated system itself --
        // the fingerprint checkpoint restore trusts -- so substrates
        // that differ in any event-changing knob never share an entry.
        const std::uint64_t key = configFingerprint(
            alone_wl, alone_cfg, resolveEngineShards(alone_cfg) > 0);
        {
            std::lock_guard<std::mutex> lock(cache_mutex);
            const auto it = cache.find(key);
            if (it != cache.end()) {
                ipcs.push_back(it->second);
                continue;
            }
        }
        const SimResult r = runSimulation(alone_wl, alone_cfg);
        const double ipc = r.apps[0].ipc;
        {
            std::lock_guard<std::mutex> lock(cache_mutex);
            cache[key] = ipc;
        }
        ipcs.push_back(ipc);
    }
    return ipcs;
}

double
weightedSpeedupOf(const SimResult &result, const std::vector<double> &alone)
{
    std::vector<double> shared;
    shared.reserve(result.apps.size());
    for (const AppResult &app : result.apps)
        shared.push_back(app.ipc);
    return weightedSpeedup(shared, alone);
}

}  // namespace mosaic
