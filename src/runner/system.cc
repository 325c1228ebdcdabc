#include "runner/system.h"

#include <algorithm>
#include <cstdio>

#include "ckpt/checkpoint.h"
#include "mm/gpu_mmu_manager.h"
#include "mm/large_only_manager.h"
#include "workload/metrics.h"

namespace mosaic {

namespace {

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
 * @p config with the cache hierarchy sized to the GPU, after refusing
 * what the machine cannot simulate faithfully.
 */
SimConfig
checkedConfig(const SimConfig &config, unsigned shards)
{
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
    SimConfig c = config;
    c.caches.numSms = config.gpu.numSms;
    return c;
}

/** Bytes of the frame pool: whole large pages below the page tables. */
std::uint64_t
framePoolBytes(const SimConfig &config)
{
    return roundDown(config.dram.capacityBytes - config.pageTablePoolBytes,
                     kLargePageSize);
}

std::unique_ptr<MemoryManager>
makeManager(const SimConfig &config)
{
    const std::uint64_t pool = framePoolBytes(config);
    switch (config.manager) {
    case ManagerKind::Mosaic:
        return std::make_unique<MosaicManager>(0, pool, config.mosaic);
    case ManagerKind::LargeOnly:
        return std::make_unique<LargeOnlyManager>(0, pool);
    case ManagerKind::GpuMmu:
    default:
        return std::make_unique<GpuMmuManager>(0, pool);
    }
}

/**
 * Derives the legacy SimResult scalar fields from the metrics snapshot.
 * The L2 TLB hit rate is per request: every request that reaches the L2
 * TLB either hits (at any level, or in CoLT) or issues a walk.
 */
void
deriveLegacyScalars(SimResult &result)
{
    const MetricsSnapshot &m = result.metrics;
    result.l1TlbHitRate =
        safeRatio(double(m.u64("vm.translation.l1Hits")),
                  double(m.u64("vm.translation.requests")));
    const std::uint64_t l2_hits = m.u64("vm.translation.l2Hits");
    result.l2TlbHitRate =
        safeRatio(double(l2_hits),
                  double(l2_hits + m.u64("vm.translation.walksIssued")));
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

}  // namespace

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

// --- Machine ------------------------------------------------------------

Machine::Machine(const SimConfig &simConfig, unsigned numApps,
                 unsigned shards)
    : config(checkedConfig(simConfig, shards)),
      // Sharded runs trace into one ring per lane (hub, SMs and channel
      // sub-lanes), merged deterministically at export.
      tracer(config.trace.enabled
                 ? std::make_shared<TraceMux>(
                       config.trace, shards > 0 ? config.gpu.numSms : 0,
                       shards > 0 ? config.dram.channels : 0)
                 : nullptr),
      // Engine selection (DESIGN.md §12): 0 shards runs the serial
      // engine; otherwise one lane per SM, one hub sub-lane per DRAM
      // channel and a control lane, byte-identical across worker counts.
      engine(shards > 0 ? std::make_unique<ShardedEngine>(config.gpu.numSms,
                                                          shards)
                        : nullptr),
      dram(events(), config.dram, &registry, hubTracer()),
      caches(events(), dram, config.caches, &registry, engine.get()),
      walker(events(), caches, config.walker, &registry, hubTracer()),
      translation(events(), walker, config.gpu.numSms, config.translation,
                  &registry, hubTracer(), engine.get(), tracer.get()),
      pcie(events(), config.pcie, &registry, hubTracer()),
      manager(makeManager(config)),
      ptAlloc(framePoolBytes(config), config.pageTablePoolBytes),
      // The optional shadow-model invariant checker (DESIGN.md §10) is
      // observation-only: it binds nothing into the registry, schedules
      // no events, and only reads through const probes.
      checker(config.invariantChecks.enabled
                  ? std::make_unique<InvariantChecker>(InvariantChecker::Config{
                        .fullSweepEvery = config.invariantChecks.fullSweepEvery,
                        .abortOnViolation =
                            config.invariantChecks.abortOnViolation})
                  : nullptr),
      gpu(events(), config.gpu, &registry),
      pager(events(), pcie, *manager, &registry, hubTracer(), {},
            engine.get())
{
    // Capacity hint: roughly one in-flight event per warp plus headroom
    // for walks, DRAM transactions, and paging transfers. Avoids the
    // callback slab's doubling reallocations during warm-up.
    events().reserve(static_cast<std::size_t>(config.gpu.numSms) *
                         config.gpu.sm.warpsPerSm * 2 +
                     1024);
    manager->registerMetrics(registry);
    if (engine != nullptr) {
        engine->enableHubSubLanes(config.dram.channels);
        // The self-profiler: engine.shard.* metrics are pure simulation
        // figures, so snapshots stay N-independent.
        engine->registerMetrics(registry);
        engine->setTrace(tracer.get());
        for (unsigned i = 0; i < config.gpu.numSms; ++i)
            engine->laneQueue(static_cast<SmId>(i))
                .reserve(config.gpu.sm.warpsPerSm * 2 + 64);
        dram.attachSubLanes(engine.get());
        caches.attachSubLanes(engine.get());
        // Replay SM-lane checker notifications at every epoch barrier,
        // so the shadow sees fills before any sweep.
        engine->addBarrierHook(
            [this] { translation.flushDeferredCheckHooks(); });
    }
    if (checker != nullptr) {
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
    manager->setEnv({.events = &events(),
                     .dram = &dram,
                     .translation = &translation,
                     .tracer = hubTracer(),
                     .stallGpu = [this](Cycles d) { gpu.stallAll(d); },
                     .checker = checker.get()});

    // A restored pool arrives in its already-fragmented checkpointed
    // state.
    if (config.ckpt.restorePath.empty() &&
        config.manager == ManagerKind::Mosaic &&
        config.fragmentationIndex > 0.0) {
        static_cast<MosaicManager *>(manager.get())
            ->injectFragmentation(config.fragmentationIndex,
                                  config.fragmentationOccupancy,
                                  config.seed * 7919 + 13);
    }

    for (unsigned i = 0; i < numApps; ++i) {
        const auto app = static_cast<AppId>(i);
        pageTables.push_back(std::make_unique<PageTable>(
            app, ptAlloc, config.translation.sizes));
        PageTable &table = *pageTables.back();
        if (checker != nullptr)
            checker->observePageTable(table);
        manager->registerApp(app, table);
        // Pre-register the address space with the translation service so
        // nothing grows per-app containers from concurrent SM lanes (a
        // no-op for behavior in serial mode).
        translation.registerApp(app, table);
    }
}

void
Machine::drain()
{
    if (engine != nullptr) {
        engine->drain();
        return;
    }
    while (serialEvents.runOne()) {
    }
}

/**
 * Taken at a quiesce point. Loading expects a freshly built machine and
 * reseeds the checker's audited-violation count.
 */
void
Machine::serialize(ckpt::Archive &ar)
{
    ar.section(kSecEngine, "engine");
    ar.expect(engine != nullptr, "engine mode");
    if (engine != nullptr)
        ar.io(*engine);
    else
        ar.io(serialEvents);
    ar.section(kSecVm, "page tables");
    ar.io(ptAlloc);
    ar.expect(pageTables.size(), "application count");
    // Page tables load before the manager and the TLBs: loading fires
    // the observer hooks that reseed the checker's shadow translation
    // map, and the TLB reload below replays its fills against that
    // shadow.
    for (const auto &table : pageTables) {
        ar.io(*table);
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
    // The audited-violation expectation rides in the manager's
    // serialized stats; reseed the checker to match.
    if (ar.loading() && ar.ok() && checker != nullptr)
        checker->seedAuditedViolations(
            manager->stats().softGuaranteeViolations);
}

// --- System -------------------------------------------------------------

System::System(const Workload &workload, const SimConfig &config,
               unsigned shards)
    : workloadName_(workload.name),
      fingerprint_(configFingerprint(workload, config, shards > 0)),
      machine_(config, static_cast<unsigned>(workload.apps.size()), shards),
      config_(machine_.config), events_(machine_.events()),
      appsRemaining_(static_cast<unsigned>(workload.apps.size())),
      churnRng_(config.seed * 31 + 7),
      ckptSchedule_(config.ckpt.checkpoints)
{
    // Checkpoint restore (DESIGN.md §14): read and validate the image
    // before anything is scheduled; the payload applies at the end.
    const bool restoring = !config_.ckpt.restorePath.empty();
    ckpt::Header restore_header;
    std::vector<std::uint8_t> restore_payload;
    if (restoring) {
        const std::string err =
            ckpt::readFile(config_.ckpt.restorePath, fingerprint_,
                           restore_header, restore_payload);
        if (!err.empty())
            MOSAIC_PANIC(err);
        if (restore_header.sharded != (shards > 0)) {
            MOSAIC_PANIC("checkpoint " + config_.ckpt.restorePath +
                         ": engine mode mismatch (image is " +
                         (restore_header.sharded ? "sharded" : "serial") +
                         ", config is " +
                         (shards > 0 ? "sharded" : "serial") + ")");
        }
    }

    for (std::size_t i = 0; i < workload.apps.size(); ++i) {
        // Churned replacement buffers grow upward from half-way through
        // the application's 1TB address slice.
        const Addr base = (static_cast<Addr>(i) + 1) << 40;
        apps_.push_back(std::make_unique<AppCtx>(
            workload.apps[i], *machine_.pageTables[i],
            AppLayout(workload.apps[i], base), base + (1ull << 39)));
    }
    // The en masse region reservations. A restored run's region state
    // (page tables, frame pool, manager maps) comes from the image.
    if (!restoring) {
        for (auto &app : apps_) {
            for (const auto &buf : app->layout.buffers())
                machine_.manager->reserveRegion(app->pageTable.appId(),
                                                buf.va, buf.bytes);
        }
    }

    // Carve the SMs into equal per-application partitions and populate
    // each SM with this application's warps.
    Gpu &gpu = machine_.gpu;
    LaneRouter *const router = machine_.engine.get();
    const auto shares = Gpu::partitionSms(
        config_.gpu.numSms, static_cast<unsigned>(apps_.size()));
    for (std::size_t i = 0; i < apps_.size(); ++i) {
        AppCtx *const app = apps_[i].get();
        app->smCount = shares[i];
        const unsigned warps_per_sm = config_.gpu.sm.warpsPerSm;
        const unsigned total_warps = app->smCount * warps_per_sm;
        for (unsigned local = 0; local < app->smCount; ++local) {
            const auto id = static_cast<SmId>(gpu.numSms());
            // The completion bookkeeping releases regions through the
            // manager (hub state), so a sharded run routes it to the
            // hub lane; serially it runs inline.
            std::function<void()> on_done = [this, app] { smDone(*app); };
            if (router != nullptr) {
                on_done = [this, app, router, id] {
                    router->callHub(id, [this, app] { smDone(*app); });
                };
            }
            gpu.createSm(app->pageTable, machine_.translation,
                         machine_.caches,
                         config_.demandPaging ? &machine_.pager : nullptr,
                         std::move(on_done),
                         router != nullptr ? &router->laneQueue(id)
                                           : nullptr);
            app->sms.push_back(id);
            for (unsigned w = 0; w < warps_per_sm; ++w) {
                const unsigned warp_idx = local * warps_per_sm + w;
                gpu.sm(id).addWarp(std::make_unique<SyntheticWarpStream>(
                    app->params, app->layout, warp_idx, total_warps,
                    config_.seed * 1315423911u + i * 2654435761u +
                        warp_idx));
            }
        }
    }

    std::stable_sort(ckptSchedule_.begin(), ckptSchedule_.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    // Runner-owned metrics: values that only the harness can see (peak
    // trackers, demand totals). Everything else registered itself at
    // component construction.
    StatsRegistry &registry = machine_.registry;
    registry.bindCounterFn("sim.cycles", [this] { return endNow(); });
    registry.bindCounterFn("mm.peakAllocatedBytes", [this] {
        return std::max(peakAllocated_,
                        machine_.manager->allocatedBytes());
    });
    registry.bindCounterFn("mm.mosaic.peakCoalescedHoleBytes", [this] {
        if (auto *m = dynamic_cast<MosaicManager *>(machine_.manager.get()))
            return std::max(peakHoles_, m->coalescedHoleBytes());
        return peakHoles_;
    });
    registry.bindCounterFn("sim.neededBytes", [this] {
        std::uint64_t needed = 0;
        for (const auto &app : apps_) {
            for (const auto &buf : app->layout.buffers())
                needed += roundUp(buf.touchedBytes, kBasePageSize);
        }
        return needed;
    });

    // Trace counter tracks. Sharded runs sample at the engine's epoch
    // barrier instead of on a tick: a tick event on the hub queue would
    // show up in the self-profiler's hub-queue figures, breaking the
    // on/off byte-equality of engine.shard.* metrics.
    Tracer *const tr = machine_.hubTracer();
    if (tr != nullptr && tr->on(kTraceCounter)) {
        if (machine_.engine != nullptr) {
            machine_.engine->setEpochSampleHook([this, tr](Cycles now) {
                sampleCounterTracks(*tr, machine_.registry, now);
            });
        } else {
            counterTicks_ = config_.trace.counterPeriodCycles > 0;
        }
    }

    if (restoring) {
        ckpt::Reader r(restore_payload);
        ckpt::Archive ar(r);
        serialize(ar);
        if (r.ok() && !r.atEnd())
            r.fail("trailing bytes after payload");
        if (!r.ok())
            MOSAIC_PANIC("checkpoint " + config_.ckpt.restorePath + ": " +
                         r.error());
        resumeAt(restore_header.resumeCycle);
        return;
    }
    // Launch: with demand paging the SMs start cold and fault pages in;
    // without it, every buffer is prefetched first (optionally charging
    // the PCIe bus) and the application starts when its data is
    // resident.
    if (config_.demandPaging) {
        gpu.startAll(0);
    } else {
        for (auto &ctx : apps_) {
            AppCtx *const app = ctx.get();
            app->prefetchesPending =
                static_cast<unsigned>(app->layout.buffers().size());
            for (const auto &buf : app->layout.buffers()) {
                machine_.pager.prefetchRegion(
                    app->pageTable, buf.va, buf.bytes,
                    config_.chargePrefetchBus, [this, app, router] {
                        if (--app->prefetchesPending > 0)
                            return;
                        // Prefetch completion is hub-side; SM starts
                        // must land on each SM's own lane.
                        for (const SmId sm : app->sms) {
                            if (router != nullptr) {
                                router->callSm(sm, [this, sm, router] {
                                    machine_.gpu.sm(sm).start(
                                        router->laneQueue(sm).now());
                                });
                            } else {
                                machine_.gpu.sm(sm).start(events_.now());
                            }
                        }
                    });
            }
        }
    }
    scheduleTicks(0);
}

/** One of @p app's SMs retired its last warp. */
void
System::smDone(AppCtx &app)
{
    if (++app.smsDone < app.smCount)
        return;
    MemoryManager &manager = *machine_.manager;
    app.finished = true;
    app.finishAt = events_.now();
    peakAllocated_ = std::max(peakAllocated_, manager.allocatedBytes());
    if (auto *m = dynamic_cast<MosaicManager *>(&manager))
        peakHoles_ = std::max(peakHoles_, m->coalescedHoleBytes());
    // The application deallocates en masse on completion.
    for (const auto &buf : app.layout.buffers())
        manager.releaseRegion(app.pageTable.appId(), buf.va, buf.bytes);
    if (--appsRemaining_ == 0) {
        allFinished_ = true;
        endCycle_ = events_.now();
    }
}

/** Schedules the churn, sampler and trace-counter ticks from @p R. */
void
System::scheduleTicks(Cycles R)
{
    if (config_.churn.enabled)
        events_.schedule(R + config_.churn.periodCycles,
                         [this] { churnTick(); });
    if (config_.metricsSamplePeriod > 0 && !allFinished_)
        events_.schedule(R + config_.metricsSamplePeriod,
                         [this] { sampleTick(); });
    if (counterTicks_)
        events_.schedule(R + config_.trace.counterPeriodCycles,
                         [this] { counterTick(); });
}

/**
 * Allocation churn (Fig. 16 / Table 2 stress): an application replaces
 * one of its buffers -- the old region is deallocated en masse and a
 * fresh virtual region of the same size is allocated (iterative kernels
 * re-uploading data). The access stream follows the buffer to its new
 * address, so whether the new allocation obtains a contiguity-conserved
 * (coalescible) frame directly affects performance. A random slice of
 * another buffer is also released, creating the internal fragmentation
 * CAC exists to clean up.
 */
void
System::churnTick()
{
    if (quiescing_)
        return;  // draining; the checkpoint re-arm reschedules
    std::vector<AppCtx *> live;
    for (auto &app : apps_) {
        if (!app->finished && !app->layout.buffers().empty())
            live.push_back(app.get());
    }
    if (live.empty())
        return;  // every application retired; stop ticking
    MemoryManager &manager = *machine_.manager;
    AppCtx &app = *live[churnRng_.below(live.size())];
    const AppId id = app.pageTable.appId();
    const auto &bufs = app.layout.buffers();

    // (1) Replace a random buffer at a fresh virtual address.
    const std::size_t victim = churnRng_.below(bufs.size());
    const auto &buf = bufs[victim];
    manager.releaseRegion(id, buf.va, buf.bytes);
    const Addr new_va = app.nextChurnVa;
    app.nextChurnVa += roundUp(buf.bytes, kLargePageSize) + kLargePageSize;
    app.layout.rebaseBuffer(victim, new_va);
    manager.reserveRegion(id, new_va, buf.bytes);

    // (2) Fragment another buffer: release a random slice of it
    // (scratch data freed mid-kernel).
    const auto &frag_buf = bufs[churnRng_.below(bufs.size())];
    const auto slice = roundUp(
        static_cast<std::uint64_t>(double(frag_buf.bytes) *
                                   config_.churn.releaseFraction),
        kBasePageSize);
    if (slice < frag_buf.bytes) {
        const Addr start =
            frag_buf.va +
            roundDown(churnRng_.below(frag_buf.bytes - slice), kBasePageSize);
        manager.releaseRegion(id, start, slice);
    }

    events_.scheduleAfter(config_.churn.periodCycles,
                          [this] { churnTick(); });
}

/**
 * Opt-in interval sampler: a full registry snapshot every
 * metricsSamplePeriod cycles. Snapshots never mutate simulator state,
 * so the simulated outcome is identical with sampling on or off.
 */
void
System::sampleTick()
{
    if (quiescing_)
        return;  // draining; the checkpoint re-arm reschedules
    samples_.push_back(machine_.registry.snapshot(events_.now()));
    if (!allFinished_)
        events_.scheduleAfter(config_.metricsSamplePeriod,
                              [this] { sampleTick(); });
}

/**
 * Serial trace counter tracks, observation-only like the sampler: the
 * tick events shift insertion sequence numbers of later events but
 * never their relative order.
 */
void
System::counterTick()
{
    if (quiescing_)
        return;  // draining; the checkpoint re-arm reschedules
    sampleCounterTracks(*machine_.hubTracer(), machine_.registry,
                        events_.now());
    if (!allFinished_)
        events_.scheduleAfter(config_.trace.counterPeriodCycles,
                              [this] { counterTick(); });
}

/**
 * Every scheduled checkpoint whose trigger is at-or-before the quiesce
 * point R saves the same quiesced state, before the re-arm, so the
 * captured clocks exclude the resume events. A restore re-saves
 * triggers <= its resume cycle, byte-identical to the original file
 * (the save->restore->save stability contract).
 */
void
System::resumeAt(Cycles R)
{
    for (; nextCkpt_ < ckptSchedule_.size() &&
           ckptSchedule_[nextCkpt_].first <= R;
         ++nextCkpt_) {
        ckpt::Writer w;
        ckpt::Archive ar(w);
        serialize(ar);
        ckpt::Header h;
        h.fingerprint = fingerprint_;
        h.resumeCycle = R;
        h.sharded = machine_.engine != nullptr;
        const std::string err =
            ckpt::writeFile(ckptSchedule_[nextCkpt_].second, h, w.buffer());
        if (!err.empty())
            MOSAIC_PANIC(err);
    }
    quiescing_ = false;
    rearm(R);
}

/**
 * Re-arms the simulation at quiesce point R: SM issue in id order, then
 * the periodic ticks. The identical call sequence runs after an
 * in-process save and after a restore, scheduling the same events with
 * the same sequence numbers -- which is what makes the two arms
 * byte-equal from R on.
 */
void
System::rearm(Cycles R)
{
    machine_.gpu.resumeAll(R);
    scheduleTicks(R);
}

void
System::serialize(ckpt::Archive &ar)
{
    machine_.serialize(ar);
    if (!ar.ok())
        return;
    ar.section(kSecRunner, "runner");
    ar.io(allFinished_);
    ar.io(endCycle_);
    ar.io(peakAllocated_);
    ar.io(peakHoles_);
    ar.io(appsRemaining_);
    for (const auto &app : apps_) {
        ar.io(app->smsDone);
        ar.io(app->finished);
        ar.io(app->finishAt);
        ar.io(app->prefetchesPending);
        ar.io(app->nextChurnVa);
        // Churn moves buffers to fresh virtual addresses; the layout
        // (and through it every warp stream) follows.
        const auto &bufs = app->layout.buffers();
        ar.expect(bufs.size(), "buffer count");
        for (std::size_t b = 0; b < bufs.size(); ++b) {
            Addr va = bufs[b].va;
            ar.io(va);
            if (ar.loading() && va != bufs[b].va)
                app->layout.rebaseBuffer(b, va);
        }
    }
    ar.io(churnRng_);
}

void
System::run()
{
    if (ShardedEngine *const engine = machine_.engine.get()) {
        // Epoch barrier hooks, after the machine's checker replay: a
        // periodic full invariant sweep, then the checkpoint trigger.
        if (InvariantChecker *const checker = machine_.checker.get()) {
            engine->addBarrierHook([engine, checker] {
                if (engine->epochs() % 4096 == 0)
                    checker->verifyAll();
            });
        }
        // At the first epoch barrier at-or-after a scheduled cycle,
        // quiesce and let the engine drain -- run() exits when no events
        // remain anywhere, and that drained window start is the quiesce
        // point R (a pure function of queue state, hence the same cycle
        // for every worker count).
        if (!ckptSchedule_.empty()) {
            engine->addBarrierHook([this, engine] {
                if (!quiescing_ && nextCkpt_ < ckptSchedule_.size() &&
                    engine->windowStart() >= ckptSchedule_[nextCkpt_].first)
                    quiesce();
            });
        }
        for (;;) {
            engine->run(config_.maxCycles, [this] { return allFinished_; });
            if (!quiescing_)
                break;
            resumeAt(engine->windowStart());
        }
        if (!allFinished_ && engine->windowStart() < config_.maxCycles)
            MOSAIC_PANIC("simulation deadlocked: no events pending");
    } else {
        // Sampled engine-dispatch instants: one marker every N executed
        // events keeps the ring from flooding at full dispatch rate.
        Tracer *const tr = machine_.hubTracer();
        const std::uint64_t every = tr != nullptr && tr->on(kTraceEngine)
                                        ? config_.trace.engineSampleEvery
                                        : 0;
        std::uint64_t executed = 0;
        while (!allFinished_ && events_.now() < config_.maxCycles) {
            // Checkpoint trigger: at the first moment the next pending
            // event is at-or-after the trigger cycle, quiesce and drain
            // (gated ticks fire but do no work), then save at R = the
            // drained clock. An empty queue never triggers: that is
            // either the natural end of the run or a deadlock.
            if (nextCkpt_ < ckptSchedule_.size() &&
                events_.nextEventAt() != EventQueue::kNoEvent &&
                events_.nextEventAt() >= ckptSchedule_[nextCkpt_].first) {
                quiesce();
                machine_.drain();
                resumeAt(events_.now());
                continue;
            }
            if (!events_.runOne())
                MOSAIC_PANIC("simulation deadlocked: no events pending");
            if (every > 0 && ++executed % every == 0) {
                tr->instant(kTraceEngine, TraceTrack::Engine,
                            "engine.sample", events_.now(),
                            {"executed", executed},
                            {"pending", events_.pending()});
            }
        }
    }
    if (nextCkpt_ < ckptSchedule_.size()) {
        MOSAIC_WARN_AT(events_.now(),
                       "simulation ended with " +
                           std::to_string(ckptSchedule_.size() - nextCkpt_) +
                           " scheduled checkpoint(s) never triggered");
    }
    if (!allFinished_)
        MOSAIC_WARN_AT(events_.now(),
                       "simulation hit maxCycles before completion");
    // A final counter sample after the last event (application teardown
    // included) lets trace_check reconcile the counter tracks against
    // the complete event stream.
    Tracer *const tr = machine_.hubTracer();
    if (tr != nullptr && tr->on(kTraceCounter))
        sampleCounterTracks(*tr, machine_.registry, events_.now());
    // Final sweep: after teardown every invariant must still hold (all
    // apps released their regions, so the shadow should be empty too).
    if (machine_.checker != nullptr)
        machine_.checker->verifyAll();
}

SimResult
System::harvest()
{
    SimResult result;
    result.configLabel = config_.label;
    result.workloadName = workloadName_;
    const Cycles snap_now = endNow();
    result.totalCycles = snap_now;
    for (const auto &ctx : apps_) {
        AppResult app;
        app.name = ctx->params.name;
        app.smCount = ctx->smCount;
        app.finishCycle = ctx->finished ? ctx->finishAt : snap_now;
        for (const SmId sm : ctx->sms) {
            app.instructions += machine_.gpu.sm(sm).stats().instructions;
            app.farFaultStalls += machine_.gpu.sm(sm).stats().farFaultStalls;
        }
        app.ipc = safeRatio(double(app.instructions),
                            double(app.finishCycle));
        const auto xs =
            machine_.translation.appStats(ctx->pageTable.appId());
        app.l1TlbHitRate = safeRatio(double(xs.l1Hits),
                                     double(xs.requests));
        app.pageWalks = xs.walks;
        result.apps.push_back(std::move(app));
    }
    // One generic registry snapshot; the legacy scalars derive from it.
    result.metrics = machine_.registry.snapshot(snap_now);
    result.metricsSamples = std::move(samples_);
    result.trace = machine_.tracer;
    if (machine_.engine != nullptr)
        result.engineShard = machine_.engine->profile();
    deriveLegacyScalars(result);
    return result;
}

}  // namespace mosaic
