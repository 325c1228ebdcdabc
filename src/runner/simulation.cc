#include "runner/simulation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "cache/hierarchy.h"
#include "check/invariant_checker.h"
#include "ckpt/checkpoint.h"
#include "ckpt/serde.h"
#include "common/parse_num.h"
#include "engine/event_queue.h"
#include "engine/sharded_engine.h"
#include "iobus/demand_paging.h"
#include "mm/gpu_mmu_manager.h"
#include "mm/large_only_manager.h"
#include "mm/mosaic_manager.h"
#include "runner/sweep.h"
#include "trace/tracer.h"
#include "workload/access_pattern.h"
#include "workload/metrics.h"

namespace mosaic {

namespace {

/** Per-application runtime context. */
struct AppCtx
{
    AppParams params;
    std::unique_ptr<PageTable> pageTable;
    std::unique_ptr<AppLayout> layout;
    unsigned smCount = 0;
    std::vector<SmId> sms;
    unsigned smsDone = 0;
    bool finished = false;
    Cycles finishAt = 0;
    unsigned prefetchesPending = 0;
    /** Bump pointer for fresh virtual regions under allocation churn. */
    Addr nextChurnVa = 0;
};

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

std::unique_ptr<MemoryManager>
makeManager(const SimConfig &config, Addr poolBase, std::uint64_t poolBytes)
{
    switch (config.manager) {
    case ManagerKind::Mosaic:
        return std::make_unique<MosaicManager>(poolBase, poolBytes,
                                               config.mosaic);
    case ManagerKind::LargeOnly:
        return std::make_unique<LargeOnlyManager>(poolBase, poolBytes);
    case ManagerKind::GpuMmu:
    default:
        return std::make_unique<GpuMmuManager>(poolBase, poolBytes);
    }
}

/**
 * Derives the legacy SimResult scalar fields from the metrics snapshot.
 * Every value reads the same underlying counter the old hand-harvest
 * read, so derived figures (bench tables, weighted speedup) stay
 * byte-identical -- the refactor's correctness proof.
 */
void
deriveLegacyScalars(SimResult &result)
{
    const MetricsSnapshot &m = result.metrics;
    result.l1TlbHitRate =
        safeRatio(double(m.u64("vm.translation.l1Hits")),
                  double(m.u64("vm.translation.requests")));
    result.l2TlbHitRate = safeRatio(
        double(m.u64("vm.tlb.l2.base.hits") +
               m.u64("vm.tlb.l2.large.hits")),
        double(m.u64("vm.tlb.l2.base.accesses") +
               m.u64("vm.tlb.l2.large.accesses")));
    result.pageWalks = m.u64("vm.walker.walks");
    result.avgWalkLatency = m.real("vm.walker.latency.mean");
    result.farFaults = m.u64("iobus.paging.farFaults");
    result.pagedBytes = m.u64("iobus.paging.bytesTransferred");
    result.mm.regionsReserved = m.u64("mm.regionsReserved");
    result.mm.pagesBacked = m.u64("mm.pagesBacked");
    result.mm.pagesReleased = m.u64("mm.pagesReleased");
    result.mm.coalesceOps = m.u64("mm.coalesceOps");
    result.mm.splinterOps = m.u64("mm.splinterOps");
    result.mm.compactions = m.u64("mm.compactions");
    result.mm.migrations = m.u64("mm.migrations");
    result.mm.emergencySplinters = m.u64("mm.emergencySplinters");
    result.mm.softGuaranteeViolations =
        m.u64("mm.softGuaranteeViolations");
    result.mm.outOfFrames = m.u64("mm.outOfFrames");
    result.allocatedBytes = m.u64("mm.peakAllocatedBytes");
    result.neededBytes = m.u64("sim.neededBytes");
    result.coalescedHoleBytes = m.u64("mm.mosaic.peakCoalescedHoleBytes");
    result.l1CacheHitRate = safeRatio(double(m.u64("cache.l1.hits")),
                                      double(m.u64("cache.l1.accesses")));
    result.l2CacheHitRate = safeRatio(double(m.u64("cache.l2.hits")),
                                      double(m.u64("cache.l2.accesses")));
    result.dramRowHits = m.u64("dram.rowHits");
    result.dramRowMisses = m.u64("dram.rowMisses");
    result.gpuStallCycles = m.u64("gpu.stallCycles");
}

/**
 * Counter tracks sampled into the trace. A curated list of string
 * literals rather than the live snapshot keys: TraceEvent stores
 * `const char *` names, so they must outlive the tracer.
 */
constexpr const char *kCounterTracks[] = {
    "mm.allocatedBytes",
    "mm.coalesceOps",
    "mm.splinterOps",
    "mm.compactions",
    "mm.migrations",
    "mm.emergencySplinters",
    "mm.softGuaranteeViolations",
    "mm.outOfFrames",
    "vm.walker.walks",
    "vm.translation.requests",
    "vm.translation.l1Hits",
    "iobus.paging.farFaults",
    "iobus.pcie.bytes",
    "dram.rowHits",
    "dram.rowMisses",
    "gpu.stallCycles",
};

/** Samples every curated counter track into the trace at @p now. */
void
sampleCounterTracks(Tracer &tracer, StatsRegistry &registry, Cycles now)
{
    const MetricsSnapshot snap = registry.snapshot(now);
    for (const char *name : kCounterTracks) {
        const MetricValue *v = snap.find(name);
        if (v != nullptr)
            tracer.counter(name, now, snap.u64(name));
    }
}

/**
 * Checkpoint payload section tags (DESIGN.md §14). Each component's
 * state is framed by one so a truncated or misaligned image fails with
 * a named location instead of silently misreading bytes.
 */
constexpr std::uint32_t kSecEngine = 0x454E4731;  // "ENG1"
constexpr std::uint32_t kSecVm = 0x50544231;      // "PTB1"
constexpr std::uint32_t kSecMm = 0x4D4D4731;      // "MMG1"
constexpr std::uint32_t kSecXlat = 0x544C4231;    // "TLB1"
constexpr std::uint32_t kSecWalker = 0x574C4B31;  // "WLK1"
constexpr std::uint32_t kSecCache = 0x43414331;   // "CAC1"
constexpr std::uint32_t kSecDram = 0x44524D31;    // "DRM1"
constexpr std::uint32_t kSecPcie = 0x50434531;    // "PCE1"
constexpr std::uint32_t kSecPager = 0x50475231;   // "PGR1"
constexpr std::uint32_t kSecGpu = 0x47505531;     // "GPU1"
constexpr std::uint32_t kSecRunner = 0x524E5231;  // "RNR1"

/**
 * FNV-1a fingerprint of the *simulated system*: every knob that
 * changes which events run (manager kind, component geometry, workload
 * parameters, seed, engine family) feeds a canonical string.
 * Presentation and observation knobs -- the label, trace sinks,
 * invariant checks, the checkpoint schedule itself, and the sharded
 * worker count N (which never changes results) -- are excluded, so a
 * restore config may differ in those and still match. trace.enabled is
 * *included*: serial counter ticks shift event sequence numbers, which
 * are checkpointed state.
 */
std::uint64_t
configFingerprint(const Workload &workload, const SimConfig &config,
                  bool sharded)
{
    std::string s;
    const auto num = [&s](std::uint64_t v) {
        s += std::to_string(v);
        s += '|';
    };
    const auto real = [&s](double v) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g|", v);
        s += buf;
    };
    const auto text = [&s](const std::string &v) {
        s += v;
        s += '|';
    };
    const auto tlb = [&num](const TlbConfig &t) {
        num(t.baseEntries);
        num(t.baseWays);
        num(t.largeEntries);
        num(t.largeWays);
        num(t.latencyCycles);
        num(t.ports);
        num(t.numSizeLevels);
        num(t.midEntries);
        num(t.midWays);
        num(t.coltEnabled);
        num(t.coltEntries);
        num(t.coltWays);
        num(t.coltSpanPagesLog2);
    };

    text(managerKindName(config.manager));
    num(config.demandPaging);
    num(config.chargePrefetchBus);
    num(config.gpu.numSms);
    num(config.gpu.sm.warpsPerSm);
    num(static_cast<unsigned>(config.gpu.sm.scheduler));
    num(config.gpu.sm.maxFaultRetries);
    tlb(config.translation.l1);
    tlb(config.translation.l2);
    num(config.translation.idealTlb);
    num(config.translation.colt);
    text(config.translation.sizes.toString());
    num(config.walker.maxConcurrentWalks);
    num(config.walker.usePageWalkCache);
    num(config.walker.pwcEntries);
    num(config.walker.pwcLatencyCycles);
    num(config.walker.pteInDram);
    num(config.caches.l1Bytes);
    num(config.caches.l1Ways);
    num(config.caches.l1LatencyCycles);
    num(config.caches.l1MshrEntries);
    num(config.caches.l2Bytes);
    num(config.caches.l2Ways);
    num(config.caches.l2Banks);
    num(config.caches.l2LatencyCycles);
    num(config.caches.l2BankCycleTime);
    num(config.caches.l2MshrEntries);
    num(config.caches.interconnectCycles);
    num(config.dram.channels);
    num(static_cast<unsigned>(config.dram.channelInterleave));
    num(config.dram.banksPerChannel);
    num(config.dram.rowBytes);
    num(config.dram.rowHitCycles);
    num(config.dram.rowMissCycles);
    num(config.dram.bankBusyHitCycles);
    num(config.dram.bankBusyMissCycles);
    num(config.dram.burstCycles);
    num(config.dram.capacityBytes);
    num(config.dram.bulkCopyInDramCycles);
    num(config.dram.bulkCopyViaBusCyclesPerLine);
    num(config.dram.schedulerWindow);
    num(config.pcie.fixedOverheadCycles);
    real(config.pcie.bytesPerCycle);
    num(config.mosaic.cac.enabled);
    num(config.mosaic.cac.occupancyThresholdPages);
    num(config.mosaic.cac.useBulkCopy);
    num(config.mosaic.cac.ideal);
    text(config.mosaic.sizes.toString());
    num(config.mosaic.coalescingEnabled);
    num(config.mosaic.coalesceResidentThreshold);
    num(config.pageTablePoolBytes);
    real(config.fragmentationIndex);
    real(config.fragmentationOccupancy);
    num(config.churn.enabled);
    num(config.churn.periodCycles);
    real(config.churn.releaseFraction);
    num(config.seed);
    num(config.maxCycles);
    num(config.metricsSamplePeriod);
    num(config.trace.enabled);
    num(sharded);
    num(workload.apps.size());
    for (const AppParams &app : workload.apps) {
        text(app.name);
        num(app.bufferSizes.size());
        for (const std::uint64_t b : app.bufferSizes)
            num(b);
        real(app.touchedFraction);
        num(app.hotBytes);
        real(app.seqFraction);
        num(app.strideLines);
        num(app.computePerMem);
        num(app.computeMin);
        num(app.computeMax);
        num(app.linesPerMem);
        real(app.storeFraction);
        num(app.instrPerWarp);
    }
    return ckpt::fnv1a(s);
}

}  // namespace

SimResult
runSimulation(const Workload &workload, const SimConfig &config)
{
    // The registry outlives every component (declared first) so the
    // components can bind their counters into it at construction; it is
    // private to this simulation per the DESIGN.md §7 contract.
    StatsRegistry registry;
    // Optional event tracer, private to this simulation like the
    // registry (shared_ptr only so SimResult can carry it out). Serial
    // runs get one ring; sharded runs get one ring per lane (hub +
    // per-SM), merged deterministically at export. Hub-side components
    // take a plain `Tracer *` into the hub ring; null means no tracing.
    const unsigned shards = resolveEngineShards(config);
    // The sharded engine runs each lane a whole window ahead of what
    // other lanes can tell it (DESIGN.md §12, "Lookahead window"), so
    // no lane-crossing latency may be shorter than the window. The
    // SM<->L2 crossbar hop is the shortest; below the window it would
    // trip the hub->SM window check mid-run or delay sub->SM fills.
    if (shards > 0 &&
        config.caches.interconnectCycles < ShardedEngine::kWindowCycles)
        MOSAIC_FATAL("config caches.interconnectCycles: " +
                     std::to_string(config.caches.interconnectCycles) +
                     " is below the sharded engine's " +
                     std::to_string(ShardedEngine::kWindowCycles) +
                     "-cycle lookahead window (use >= " +
                     std::to_string(ShardedEngine::kWindowCycles) +
                     ", or engineShards = 0)");
    // Frames come from below the page-table pool; a pool that leaves no
    // whole large page would underflow the frame range or leave every
    // far fault retrying until maxCycles.
    if (config.pageTablePoolBytes > config.dram.capacityBytes ||
        config.dram.capacityBytes - config.pageTablePoolBytes <
            kLargePageSize)
        MOSAIC_FATAL("config pageTablePoolBytes: " +
                     std::to_string(config.pageTablePoolBytes) +
                     " leaves no 2 MB frame in dram.capacityBytes (" +
                     std::to_string(config.dram.capacityBytes) + ")");

    // Checkpoint restore (DESIGN.md §14): read and validate the image
    // up front -- before any component exists -- so a bad file fails
    // fast with a diagnostic; the payload is applied after assembly.
    const bool restoring = !config.ckpt.restorePath.empty();
    ckpt::Header restore_header;
    std::vector<std::uint8_t> restore_payload;
    if (restoring) {
        const std::string err = ckpt::readFile(
            config.ckpt.restorePath,
            configFingerprint(workload, config, shards > 0),
            restore_header, restore_payload);
        if (!err.empty())
            MOSAIC_PANIC(err);
        if (restore_header.sharded != (shards > 0)) {
            MOSAIC_PANIC("checkpoint " + config.ckpt.restorePath +
                         ": engine mode mismatch (image is " +
                         (restore_header.sharded ? "sharded" : "serial") +
                         ", config is " +
                         (shards > 0 ? "sharded" : "serial") + ")");
        }
    }

    std::shared_ptr<TraceMux> tracer;
    if (config.trace.enabled)
        tracer = std::make_shared<TraceMux>(
            config.trace, shards > 0 ? config.gpu.numSms : 0,
            shards > 0 ? config.dram.channels : 0);
    Tracer *const tr = tracer != nullptr ? tracer->hub() : nullptr;

    // Engine selection (DESIGN.md §12): shards == 0 runs the classic
    // single-queue serial engine, byte-identical to every release before
    // sharding existed. shards >= 1 runs the epoch-synchronized sharded
    // engine -- one lane per SM, one hub sub-lane per DRAM channel
    // (ROADMAP 6(b)), and a control lane for the remaining shared
    // components -- whose results are byte-identical across worker
    // counts (the lane structure is fixed; N only changes wall-clock
    // time).
    std::unique_ptr<ShardedEngine> engine;
    if (shards > 0) {
        engine = std::make_unique<ShardedEngine>(config.gpu.numSms, shards);
        engine->enableHubSubLanes(config.dram.channels);
        // The self-profiler (DESIGN.md §12): engine.shard.* metrics are
        // pure simulation figures, so snapshots stay N-independent.
        engine->registerMetrics(registry);
        engine->setTrace(tracer.get());
    }
    LaneRouter *const router = engine.get();
    EventQueue serial_events;
    EventQueue &events = engine != nullptr ? engine->hubQueue()
                                           : serial_events;
    // Capacity hint: roughly one in-flight event per warp plus headroom
    // for walks, DRAM transactions, and paging transfers. Avoids the
    // callback slab's doubling reallocations during warm-up.
    events.reserve(static_cast<std::size_t>(config.gpu.numSms) *
                       config.gpu.sm.warpsPerSm * 2 +
                   1024);
    if (engine != nullptr) {
        for (unsigned i = 0; i < config.gpu.numSms; ++i)
            engine->laneQueue(static_cast<SmId>(i))
                .reserve(config.gpu.sm.warpsPerSm * 2 + 64);
    }
    DramModel dram(events, config.dram, &registry, tr);
    if (engine != nullptr)
        dram.attachSubLanes(engine.get());

    CacheHierarchyConfig cache_cfg = config.caches;
    cache_cfg.numSms = config.gpu.numSms;
    CacheHierarchy caches(events, dram, cache_cfg, &registry, router);
    if (engine != nullptr)
        caches.attachSubLanes(engine.get());

    PageTableWalker walker(events, caches, config.walker, &registry, tr);
    TranslationService translation(events, walker, config.gpu.numSms,
                                   config.translation, &registry, tr,
                                   router, tracer.get());
    PcieBus pcie(events, config.pcie, &registry, tr);

    // Physical layout: frames from address 0; page-table nodes in a
    // dedicated pool at the top of memory.
    const std::uint64_t pool_bytes = roundDown(
        config.dram.capacityBytes - config.pageTablePoolBytes,
        kLargePageSize);
    auto manager = makeManager(config, 0, pool_bytes);
    manager->registerMetrics(registry);
    RegionPtNodeAllocator pt_alloc(pool_bytes, config.pageTablePoolBytes);

    // Optional shadow-model invariant checker (DESIGN.md §10). Strictly
    // observation-only: it binds nothing into the registry, schedules no
    // events, and only reads through const probes, so the SimResult is
    // byte-identical with checks on or off. Declared before the page
    // tables below so it outlives their raw observer pointers.
    std::unique_ptr<InvariantChecker> checker;
    if (config.invariantChecks.enabled) {
        InvariantChecker::Config cc;
        cc.fullSweepEvery = config.invariantChecks.fullSweepEvery;
        cc.abortOnViolation = config.invariantChecks.abortOnViolation;
        checker = std::make_unique<InvariantChecker>(cc);
        checker->attachManager(manager.get());
        checker->attachTranslation(&translation);
        checker->attachDram(&dram);
        if (config.manager == ManagerKind::Mosaic) {
            checker->attachMosaicState(
                &static_cast<MosaicManager *>(manager.get())->state());
            checker->attachCacConfig(&config.mosaic.cac);
        }
        translation.setChecker(checker.get());
    }

    Gpu gpu(events, config.gpu, &registry);
    ManagerEnv env;
    env.events = &events;
    env.dram = &dram;
    env.translation = &translation;
    env.tracer = tr;
    env.stallGpu = [&gpu](Cycles d) { gpu.stallAll(d); };
    env.checker = checker.get();
    manager->setEnv(env);

    // Restored runs skip fragmentation injection: the pool arrives in
    // its already-fragmented checkpointed state.
    if (!restoring && config.manager == ManagerKind::Mosaic &&
        config.fragmentationIndex > 0.0) {
        static_cast<MosaicManager *>(manager.get())
            ->injectFragmentation(config.fragmentationIndex,
                                  config.fragmentationOccupancy,
                                  config.seed * 7919 + 13);
    }

    // Instantiate the applications: page tables, virtual layouts, and
    // the en masse region reservations.
    std::vector<std::unique_ptr<AppCtx>> apps;
    for (std::size_t i = 0; i < workload.apps.size(); ++i) {
        auto ctx = std::make_unique<AppCtx>();
        ctx->params = workload.apps[i];
        ctx->pageTable = std::make_unique<PageTable>(
            static_cast<AppId>(i), pt_alloc, config.translation.sizes);
        ctx->layout = std::make_unique<AppLayout>(
            ctx->params, (static_cast<Addr>(i) + 1) << 40);
        // Churned replacement buffers grow upward from half-way through
        // the application's 1TB address slice.
        ctx->nextChurnVa = ((static_cast<Addr>(i) + 1) << 40) +
                           (1ull << 39);
        if (checker != nullptr)
            checker->observePageTable(*ctx->pageTable);
        manager->registerApp(static_cast<AppId>(i), *ctx->pageTable);
        // Pre-register the address space with the translation service so
        // nothing grows per-app containers from concurrent SM lanes (a
        // no-op for behavior in serial mode).
        translation.registerApp(static_cast<AppId>(i), *ctx->pageTable);
        apps.push_back(std::move(ctx));
    }
    // Restored runs skip the en masse reservations too: region state
    // (page tables, frame pool, manager maps) comes from the image.
    if (!restoring) {
        for (auto &ctx : apps) {
            for (const auto &buf : ctx->layout->buffers())
                manager->reserveRegion(ctx->pageTable->appId(), buf.va,
                                       buf.bytes);
        }
    }

    DemandPager pager(events, pcie, *manager, &registry, tr, {}, router);

    // Carve the SMs into equal per-application partitions and populate
    // each SM with this application's warps.
    const auto shares = Gpu::partitionSms(
        config.gpu.numSms, static_cast<unsigned>(apps.size()));
    bool all_finished = false;
    // Simulated time at which the last application finished. In serial
    // mode the event loop stops on the finishing event, so this equals
    // events.now() at loop exit; in sharded mode the engine runs out the
    // rest of the window (harmlessly -- finished apps generate no
    // traffic), so the harvest must use this instead of queue time.
    Cycles end_cycle = 0;
    std::uint64_t peak_allocated = 0;
    std::uint64_t peak_holes = 0;
    unsigned apps_remaining = static_cast<unsigned>(apps.size());

    for (std::size_t i = 0; i < apps.size(); ++i) {
        AppCtx &app = *apps[i];
        app.smCount = shares[i];
        const unsigned warps_per_sm = config.gpu.sm.warpsPerSm;
        const unsigned total_warps = app.smCount * warps_per_sm;

        for (unsigned local = 0; local < app.smCount; ++local) {
            AppCtx *app_ptr = &app;
            auto finish = [app_ptr, manager = manager.get(),
                           &peak_allocated, &peak_holes, &apps_remaining,
                           &all_finished, &end_cycle, &events] {
                if (++app_ptr->smsDone < app_ptr->smCount)
                    return;
                app_ptr->finished = true;
                app_ptr->finishAt = events.now();
                peak_allocated = std::max(peak_allocated,
                                          manager->allocatedBytes());
                if (auto *m = dynamic_cast<MosaicManager *>(manager)) {
                    peak_holes = std::max(peak_holes,
                                          m->coalescedHoleBytes());
                }
                // The application deallocates en masse on completion.
                for (const auto &buf : app_ptr->layout->buffers()) {
                    manager->releaseRegion(app_ptr->pageTable->appId(),
                                           buf.va, buf.bytes);
                }
                if (--apps_remaining == 0) {
                    all_finished = true;
                    end_cycle = events.now();
                }
            };
            // The completion bookkeeping releases regions through the
            // manager (hub state), so a sharded run routes it to the
            // hub lane; serially it runs inline as before.
            std::function<void()> on_done;
            if (router != nullptr) {
                const auto src = static_cast<SmId>(gpu.numSms());
                on_done = [router, src, finish] {
                    router->callHub(src, [finish] { finish(); });
                };
            } else {
                on_done = finish;
            }
            const SmId sm_id = gpu.createSm(
                *app.pageTable, translation, caches,
                config.demandPaging ? &pager : nullptr, std::move(on_done),
                engine != nullptr
                    ? &engine->laneQueue(static_cast<SmId>(gpu.numSms()))
                    : nullptr);
            app.sms.push_back(sm_id);

            for (unsigned w = 0; w < warps_per_sm; ++w) {
                const unsigned warp_idx = local * warps_per_sm + w;
                gpu.sm(sm_id).addWarp(std::make_unique<SyntheticWarpStream>(
                    app.params, *app.layout, warp_idx, total_warps,
                    config.seed * 1315423911u + i * 2654435761u + warp_idx));
            }
        }
    }

    // Checkpoint schedule, processed in ascending trigger order. The
    // `quiescing` flag gates every periodic self-rescheduling tick
    // (allocation churn, metrics sampler, trace counters): during a
    // quiesce drain a pending tick must do no work, draw no
    // randomness, and not reschedule itself, so the drain terminates
    // and the re-arm below rebuilds the tick chains identically after
    // an in-process save and after a restore.
    std::vector<std::pair<Cycles, std::string>> ckpt_schedule =
        config.ckpt.checkpoints;
    std::stable_sort(
        ckpt_schedule.begin(), ckpt_schedule.end(),
        [](const std::pair<Cycles, std::string> &a,
           const std::pair<Cycles, std::string> &b) {
            return a.first < b.first;
        });
    std::size_t next_ckpt = 0;
    bool quiescing = false;

    // Launch: with demand paging the SMs start cold and fault pages in;
    // without it, every buffer is prefetched first (optionally charging
    // the PCIe bus) and the application starts when its data is resident.
    // A restored run launches nothing: SM progress (started flags, live
    // warps, stream cursors) comes from the image, and the re-arm below
    // reschedules issue at the resume cycle.
    if (restoring) {
        // nothing to launch
    } else if (config.demandPaging) {
        gpu.startAll(0);
    } else {
        for (auto &ctx : apps) {
            AppCtx *app_ptr = ctx.get();
            app_ptr->prefetchesPending =
                static_cast<unsigned>(ctx->layout->buffers().size());
            for (const auto &buf : ctx->layout->buffers()) {
                pager.prefetchRegion(
                    *ctx->pageTable, buf.va, buf.bytes,
                    config.chargePrefetchBus,
                    [app_ptr, &gpu, &events, router] {
                        if (--app_ptr->prefetchesPending > 0)
                            return;
                        // Prefetch completion is hub-side; SM starts
                        // must land on each SM's own lane.
                        for (const SmId sm : app_ptr->sms) {
                            if (router != nullptr) {
                                router->callSm(sm, [&gpu, sm, router] {
                                    gpu.sm(sm).start(
                                        router->laneQueue(sm).now());
                                });
                            } else {
                                gpu.sm(sm).start(events.now());
                            }
                        }
                    });
            }
        }
    }

    // Allocation churn (Fig. 16 / Table 2 stress): periodically an
    // application replaces one of its buffers -- the old region is
    // deallocated en masse and a fresh virtual region of the same size
    // is allocated (iterative kernels re-uploading data). The access
    // stream follows the buffer to its new address, so whether the new
    // allocation obtains a contiguity-conserved (coalescible) frame
    // directly affects performance. Additionally, a random slice of
    // another buffer is released to create the internal fragmentation
    // CAC exists to clean up.
    // Like the other tick chains below, the closure outlives the event
    // loop, so pending events capture it by reference.
    std::function<void()> churn_tick;
    Rng churn_rng(config.seed * 31 + 7);
    if (config.churn.enabled) {
        churn_tick = [&apps, &manager, &events, &config, &churn_rng,
                      &quiescing, &churn_tick] {
            if (quiescing)
                return;  // draining; the checkpoint re-arm reschedules
            std::vector<AppCtx *> live;
            for (auto &ctx : apps) {
                if (!ctx->finished && !ctx->layout->buffers().empty())
                    live.push_back(ctx.get());
            }
            if (live.empty())
                return;  // every application retired; stop ticking
            AppCtx &app = *live[churn_rng.below(live.size())];
            const AppId id = app.pageTable->appId();
            const auto &bufs = app.layout->buffers();

            // (1) Replace a random buffer at a fresh virtual address.
            const std::size_t victim = churn_rng.below(bufs.size());
            const auto &buf = bufs[victim];
            manager->releaseRegion(id, buf.va, buf.bytes);
            const Addr new_va = app.nextChurnVa;
            app.nextChurnVa += roundUp(buf.bytes, kLargePageSize) +
                               kLargePageSize;
            app.layout->rebaseBuffer(victim, new_va);
            manager->reserveRegion(id, new_va, buf.bytes);

            // (2) Fragment another buffer: release a random slice of it
            // (scratch data freed mid-kernel).
            const auto &frag_buf = bufs[churn_rng.below(bufs.size())];
            const auto slice = roundUp(
                static_cast<std::uint64_t>(
                    double(frag_buf.bytes) * config.churn.releaseFraction),
                kBasePageSize);
            if (slice < frag_buf.bytes) {
                const Addr start = frag_buf.va + roundDown(
                    churn_rng.below(frag_buf.bytes - slice),
                    kBasePageSize);
                manager->releaseRegion(id, start, slice);
            }

            events.scheduleAfter(config.churn.periodCycles,
                                 [&churn_tick] { churn_tick(); });
        };
        if (!restoring) {
            events.scheduleAfter(config.churn.periodCycles,
                                 [&churn_tick] { churn_tick(); });
        }
    }

    // Runner-owned metrics: values that only the harness can see (peak
    // trackers, demand totals). Everything else registered itself at
    // component construction.
    registry.bindCounterFn("sim.cycles",
                           [&events, &all_finished, &end_cycle] {
                               return all_finished ? end_cycle
                                                   : events.now();
                           });
    registry.bindCounterFn("mm.peakAllocatedBytes",
                           [&peak_allocated, m = manager.get()] {
                               return std::max(peak_allocated,
                                               m->allocatedBytes());
                           });
    registry.bindCounterFn(
        "mm.mosaic.peakCoalescedHoleBytes", [&peak_holes, m = manager.get()] {
            if (auto *mosaic = dynamic_cast<MosaicManager *>(m))
                return std::max(peak_holes, mosaic->coalescedHoleBytes());
            return peak_holes;
        });
    registry.bindCounterFn("sim.neededBytes", [&apps] {
        std::uint64_t needed = 0;
        for (const auto &ctx : apps) {
            for (const auto &buf : ctx->layout->buffers())
                needed += roundUp(buf.touchedBytes, kBasePageSize);
        }
        return needed;
    });

    // Opt-in interval sampler: records a full registry snapshot every
    // metricsSamplePeriod cycles so benches can plot metric activity
    // over a run. Snapshot events never mutate simulator state, so the
    // simulated outcome is identical with sampling on or off.
    std::vector<MetricsSnapshot> samples;
    // The tick closure outlives the event loop below, so pending events
    // may capture it by reference; callbacks only fire inside that loop.
    std::function<void()> sample_tick;
    if (config.metricsSamplePeriod > 0) {
        sample_tick = [&registry, &samples, &events, &all_finished,
                       &config, &quiescing, &sample_tick] {
            if (quiescing)
                return;  // draining; the checkpoint re-arm reschedules
            samples.push_back(registry.snapshot(events.now()));
            if (!all_finished) {
                events.scheduleAfter(config.metricsSamplePeriod,
                                     [&sample_tick] { sample_tick(); });
            }
        };
        if (!restoring) {
            events.scheduleAfter(config.metricsSamplePeriod,
                                 [&sample_tick] { sample_tick(); });
        }
    }

    // Trace counter tracks: the same observation-only pattern as the
    // metrics sampler above -- the tick events shift insertion sequence
    // numbers of later events but never their relative order, and the
    // callback only reads, so the simulated outcome is unchanged.
    // Sharded runs sample at the engine's epoch barrier instead: a tick
    // event on the hub queue would show up in the self-profiler's
    // hub-queue figures, breaking the on/off byte-equality of
    // engine.shard.* metrics.
    std::function<void()> trace_counter_tick;
    if (engine != nullptr && tr != nullptr && tr->on(kTraceCounter)) {
        engine->setEpochSampleHook([tr, &registry](Cycles now) {
            sampleCounterTracks(*tr, registry, now);
        });
    } else if (tr != nullptr && tr->on(kTraceCounter) &&
               config.trace.counterPeriodCycles > 0) {
        trace_counter_tick = [tr, &registry, &events, &all_finished,
                              &config, &quiescing, &trace_counter_tick] {
            if (quiescing)
                return;  // draining; the checkpoint re-arm reschedules
            sampleCounterTracks(*tr, registry, events.now());
            if (!all_finished) {
                events.scheduleAfter(config.trace.counterPeriodCycles,
                                     [&trace_counter_tick] {
                                         trace_counter_tick();
                                     });
            }
        };
        if (!restoring) {
            events.scheduleAfter(config.trace.counterPeriodCycles,
                                 [&trace_counter_tick] {
                                     trace_counter_tick();
                                 });
        }
    }

    // --- Checkpoint/restore machinery (DESIGN.md §14) -------------------
    const std::uint64_t fingerprint =
        configFingerprint(workload, config, shards > 0);

    // Serializes every component in canonical section order. Saving
    // only ever happens at a quiesce point: SMs paused, every queue
    // drained (each component's serialize() asserts its own share of
    // that contract), and crucially *before* the re-arm, so the
    // captured event-queue clocks exclude the resume events -- the
    // restore path re-creates them through the same rearm() call.
    const auto serialize_all = [&](ckpt::Archive &ar) {
        ar.section(kSecEngine, "engine");
        ar.expect(engine != nullptr, "engine mode");
        if (engine != nullptr)
            ar.io(*engine);
        else
            ar.io(events);
        ar.section(kSecVm, "page tables");
        ar.io(pt_alloc);
        ar.expect(apps.size(), "application count");
        // Page tables load before the manager and the TLBs: loading
        // fires the observer hooks that reseed the checker's shadow
        // translation map, and the TLB reload below replays its fills
        // against that shadow.
        for (const auto &ctx : apps) {
            ar.io(*ctx->pageTable);
            if (!ar.ok())
                return;
        }
        ar.section(kSecMm, "memory manager");
        ar.io(*manager);
        ar.section(kSecXlat, "translation");
        ar.io(translation);
        ar.section(kSecWalker, "walker");
        ar.io(walker);
        ar.section(kSecCache, "caches");
        ar.io(caches);
        ar.section(kSecDram, "dram");
        ar.io(dram);
        ar.section(kSecPcie, "pcie");
        ar.io(pcie);
        ar.section(kSecPager, "pager");
        ar.io(pager);
        ar.section(kSecGpu, "gpu");
        ar.io(gpu);
        ar.section(kSecRunner, "runner");
        ar.io(all_finished);
        ar.io(end_cycle);
        ar.io(peak_allocated);
        ar.io(peak_holes);
        ar.io(apps_remaining);
        for (const auto &ctx : apps) {
            ar.io(ctx->smsDone);
            ar.io(ctx->finished);
            ar.io(ctx->finishAt);
            ar.io(ctx->prefetchesPending);
            ar.io(ctx->nextChurnVa);
            // Churn moves buffers to fresh virtual addresses; the
            // layout (and through it every warp stream) follows.
            const auto &bufs = ctx->layout->buffers();
            ar.expect(bufs.size(), "buffer count");
            for (std::size_t b = 0; b < bufs.size(); ++b) {
                Addr va = bufs[b].va;
                ar.io(va);
                if (ar.loading() && va != bufs[b].va)
                    ctx->layout->rebaseBuffer(b, va);
            }
        }
        ar.io(churn_rng);
    };

    const auto write_checkpoint = [&](const std::string &path, Cycles R) {
        ckpt::Writer w;
        ckpt::Archive ar(w);
        serialize_all(ar);
        ckpt::Header h;
        h.fingerprint = fingerprint;
        h.resumeCycle = R;
        h.sharded = engine != nullptr;
        const std::string err = ckpt::writeFile(path, h, w.buffer());
        if (!err.empty())
            MOSAIC_PANIC(err);
    };

    // Every scheduled checkpoint whose trigger is at-or-before the
    // quiesce point R saves the same quiesced state. A restore re-saves
    // triggers <= its resume cycle here, byte-identical to the original
    // file (the save->restore->save stability contract).
    const auto save_due_checkpoints = [&](Cycles R) {
        while (next_ckpt < ckpt_schedule.size() &&
               ckpt_schedule[next_ckpt].first <= R) {
            write_checkpoint(ckpt_schedule[next_ckpt].second, R);
            ++next_ckpt;
        }
    };

    // Re-arms the simulation at quiesce point R: SM issue in id order,
    // then the periodic tick chains. The identical call sequence runs
    // after an in-process save and after a restore, scheduling the same
    // events with the same sequence numbers -- which is what makes the
    // two arms byte-equal from R on.
    const auto rearm = [&](Cycles R) {
        gpu.resumeAll(R);
        if (config.churn.enabled) {
            events.schedule(R + config.churn.periodCycles,
                            [&churn_tick] { churn_tick(); });
        }
        if (config.metricsSamplePeriod > 0 && !all_finished) {
            events.schedule(R + config.metricsSamplePeriod,
                            [&sample_tick] { sample_tick(); });
        }
        if (trace_counter_tick) {
            events.schedule(R + config.trace.counterPeriodCycles,
                            [&trace_counter_tick] {
                                trace_counter_tick();
                            });
        }
    };

    // Serial checkpoint trigger: checked before each event dispatch. At
    // the first moment the next pending event is at-or-after the
    // trigger cycle, pause SM issue and drain the queue (gated ticks
    // fire but do no work), then save at R = the drained clock.
    const auto serial_ckpt_due = [&] {
        // An empty queue never triggers: that is either the natural end
        // of the run or a deadlock, and both have their own reporting.
        return next_ckpt < ckpt_schedule.size() &&
               events.nextEventAt() != EventQueue::kNoEvent &&
               events.nextEventAt() >= ckpt_schedule[next_ckpt].first;
    };
    const auto serial_quiesce = [&] {
        gpu.pauseAll();
        quiescing = true;
        while (events.runOne()) {
        }
        const Cycles R = events.now();
        save_due_checkpoints(R);
        quiescing = false;
        rearm(R);
    };

    if (restoring) {
        ckpt::Reader r(restore_payload);
        ckpt::Archive ar(r);
        serialize_all(ar);
        if (r.ok() && !r.atEnd())
            r.fail("trailing bytes after payload");
        if (!r.ok())
            MOSAIC_PANIC("checkpoint " + config.ckpt.restorePath + ": " +
                         r.error());
        // The audited-violation expectation rides in the manager's
        // serialized stats; reseed the checker to match.
        if (checker != nullptr) {
            checker->seedAuditedViolations(
                manager->stats().softGuaranteeViolations);
        }
        save_due_checkpoints(restore_header.resumeCycle);
        rearm(restore_header.resumeCycle);
    }

    if (engine != nullptr) {
        // Epoch barrier hooks, in order: replay SM-lane checker
        // notifications (so the shadow sees fills before any sweep),
        // then a periodic full invariant sweep at epoch boundaries.
        engine->addBarrierHook(
            [&translation] { translation.flushDeferredCheckHooks(); });
        if (checker != nullptr) {
            engine->addBarrierHook([eng = engine.get(),
                                    chk = checker.get()] {
                if (eng->epochs() % 4096 == 0)
                    chk->verifyAll();
            });
        }
        // Checkpoint trigger: at the first epoch barrier at-or-after a
        // scheduled cycle, pause SM issue and let the engine drain --
        // run() exits when no events remain anywhere, and that drained
        // window start is the quiesce point R (a pure function of
        // queue state, hence the same cycle for every worker count).
        if (!ckpt_schedule.empty()) {
            engine->addBarrierHook([&] {
                if (!quiescing && next_ckpt < ckpt_schedule.size() &&
                    engine->windowStart() >=
                        ckpt_schedule[next_ckpt].first) {
                    quiescing = true;
                    gpu.pauseAll();
                }
            });
        }
        for (;;) {
            engine->run(config.maxCycles,
                        [&all_finished] { return all_finished; });
            if (!quiescing)
                break;
            const Cycles R = engine->windowStart();
            save_due_checkpoints(R);
            quiescing = false;
            rearm(R);
        }
        if (!all_finished && engine->windowStart() < config.maxCycles)
            MOSAIC_PANIC("simulation deadlocked: no events pending");
    } else if (tr != nullptr && tr->on(kTraceEngine) &&
               config.trace.engineSampleEvery > 0) {
        // Sampled engine-dispatch instants: one marker every N executed
        // events keeps the ring from flooding at full dispatch rate.
        const std::uint64_t every = config.trace.engineSampleEvery;
        std::uint64_t executed = 0;
        while (!all_finished && events.now() < config.maxCycles) {
            if (serial_ckpt_due()) {
                serial_quiesce();
                continue;
            }
            if (!events.runOne())
                MOSAIC_PANIC("simulation deadlocked: no events pending");
            if (++executed % every == 0) {
                tr->instant(kTraceEngine, TraceTrack::Engine,
                            "engine.sample", events.now(),
                            {"executed", executed},
                            {"pending", events.pending()});
            }
        }
    } else {
        while (!all_finished && events.now() < config.maxCycles) {
            if (serial_ckpt_due()) {
                serial_quiesce();
                continue;
            }
            if (!events.runOne())
                MOSAIC_PANIC("simulation deadlocked: no events pending");
        }
    }
    if (next_ckpt < ckpt_schedule.size()) {
        MOSAIC_WARN_AT(events.now(),
                       "simulation ended with " +
                           std::to_string(ckpt_schedule.size() - next_ckpt) +
                           " scheduled checkpoint(s) never triggered");
    }
    if (!all_finished)
        MOSAIC_WARN_AT(events.now(),
                       "simulation hit maxCycles before completion");
    // A final counter sample after the last event (application teardown
    // included) lets trace_check reconcile the counter tracks against
    // the complete event stream.
    if (tr != nullptr && tr->on(kTraceCounter))
        sampleCounterTracks(*tr, registry, events.now());

    // Final sweep: after teardown every invariant must still hold (all
    // apps released their regions, so the shadow should be empty too).
    if (checker != nullptr)
        checker->verifyAll();

    // Harvest: one generic registry snapshot replaces the old per-field
    // hand-copy; the legacy scalar fields are derived from it.
    SimResult result;
    result.configLabel = config.label;
    result.workloadName = workload.name;
    // Harvest at the instant the last app finished (== events.now() at
    // serial loop exit; see end_cycle above for the sharded case).
    const Cycles snap_now = all_finished ? end_cycle : events.now();
    result.totalCycles = snap_now;
    for (auto &ctx : apps) {
        AppResult app;
        app.name = ctx->params.name;
        app.smCount = ctx->smCount;
        app.finishCycle = ctx->finished ? ctx->finishAt : snap_now;
        for (const SmId sm : ctx->sms) {
            app.instructions += gpu.sm(sm).stats().instructions;
            app.farFaultStalls += gpu.sm(sm).stats().farFaultStalls;
        }
        app.ipc = safeRatio(double(app.instructions),
                            double(app.finishCycle));
        const auto xs = translation.appStats(ctx->pageTable->appId());
        app.l1TlbHitRate = safeRatio(double(xs.l1Hits),
                                     double(xs.requests));
        app.pageWalks = xs.walks;
        result.apps.push_back(std::move(app));
    }

    result.metrics = registry.snapshot(snap_now);
    result.metricsSamples = std::move(samples);
    result.trace = std::move(tracer);
    if (engine != nullptr)
        result.engineShard = engine->profile();
    deriveLegacyScalars(result);
    return result;
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
