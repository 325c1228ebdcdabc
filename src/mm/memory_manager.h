/**
 * @file
 * Abstract GPU memory-manager interface.
 *
 * A memory manager owns the policy side of GPU physical memory: how
 * virtual regions reserved en masse map onto physical base pages, at what
 * granularity demand-paging transfers happen, and what happens on
 * deallocation. Three concrete managers implement the paper's designs:
 * GpuMmuManager (Power et al. baseline), MosaicManager (CoCoA +
 * In-Place Coalescer + CAC), and LargeOnlyManager (2MB pages only).
 */

#ifndef MOSAIC_MM_MEMORY_MANAGER_H
#define MOSAIC_MM_MEMORY_MANAGER_H

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "check/check_sink.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "trace/tracer.h"
#include "vm/page_table.h"

namespace mosaic {

class DramModel;
class FramePool;
class TranslationService;

/**
 * Services the manager may use for timing side effects. All pointers are
 * optional: a null service makes the corresponding effect free, which
 * keeps the managers usable in functional unit tests.
 */
struct ManagerEnv
{
    EventQueue *events = nullptr;
    DramModel *dram = nullptr;
    TranslationService *translation = nullptr;
    /** Event tracer; null when tracing is disabled. */
    Tracer *tracer = nullptr;
    /** Stalls every SM for the given duration (CAC's worst-case cost). */
    std::function<void(Cycles)> stallGpu;
    /** Invariant checker; null when checking is disabled. */
    CheckSink *checker = nullptr;
};

/** Notifies the checker that a manager mutation at @p site completed. */
inline void
envMutated(const ManagerEnv &env, const char *site)
{
    if (env.checker != nullptr)
        env.checker->onMutation(site);
}

/** Current simulation time, or 0 in env-less unit tests. */
inline Cycles
envNow(const ManagerEnv &env)
{
    return env.events != nullptr ? env.events->now() : 0;
}

/** Statistics every manager reports. */
struct MemoryManagerStats
{
    std::uint64_t regionsReserved = 0;
    std::uint64_t pagesBacked = 0;
    std::uint64_t pagesReleased = 0;
    std::uint64_t coalesceOps = 0;
    std::uint64_t splinterOps = 0;
    /** Intermediate-level promotions/demotions (Trident hierarchies
     *  only; always zero with the default pair, and not part of the
     *  base "mm.*" metric set -- MosaicManager registers them only for
     *  multi-level configurations). Demotions cascaded by a top-level
     *  splinter count toward splinterOps, not here. */
    std::uint64_t midCoalesceOps = 0;
    std::uint64_t midSplinterOps = 0;
    std::uint64_t compactions = 0;           ///< frames freed by CAC
    std::uint64_t migrations = 0;            ///< base pages moved by CAC
    std::uint64_t emergencySplinters = 0;
    std::uint64_t softGuaranteeViolations = 0;
    std::uint64_t outOfFrames = 0;           ///< free-frame-list misses

    void
    serialize(ckpt::Archive &ar)
    {
        ar.io(regionsReserved);
        ar.io(pagesBacked);
        ar.io(pagesReleased);
        ar.io(coalesceOps);
        ar.io(splinterOps);
        ar.io(midCoalesceOps);
        ar.io(midSplinterOps);
        ar.io(compactions);
        ar.io(migrations);
        ar.io(emergencySplinters);
        ar.io(softGuaranteeViolations);
        ar.io(outOfFrames);
    }
};

/** Abstract interface implemented by all GPU memory managers. */
class MemoryManager
{
  public:
    virtual ~MemoryManager() = default;

    /**
     * Checkpoint hook (DESIGN.md §14): the manager's complete mutable
     * state (frame pool, free lists, per-app allocator state, counters).
     * Unordered maps go through Archive's sorted-key map overload so the
     * bytes are a pure function of the logical state, independent of
     * insertion history. Loading expects registerApp to have run for
     * every app first (page-table pointers are wiring, not state).
     */
    virtual void serialize(ckpt::Archive &ar) = 0;

    /** Provides timing services; call once before simulation starts. */
    virtual void setEnv(const ManagerEnv &env) = 0;

    /** Registers an application's page table with the manager. */
    virtual void registerApp(AppId app, PageTable &pageTable) = 0;

    /**
     * Reserves the virtual region [vaBase, vaBase+bytes) for @p app
     * (the application's en masse allocation request). No physical
     * memory is committed; policy state (e.g., CoCoA's frame
     * assignments) is established here.
     */
    virtual void reserveRegion(AppId app, Addr vaBase,
                               std::uint64_t bytes) = 0;

    /**
     * Commits physical memory for the base page containing @p va and
     * installs the mapping (the demand-paging path, called when the
     * page's data has arrived over the I/O bus).
     * @return false when physical memory is exhausted.
     */
    virtual bool backPage(AppId app, Addr va) = 0;

    /** Releases the region (application deallocation / kernel end). */
    virtual void releaseRegion(AppId app, Addr vaBase,
                               std::uint64_t bytes) = 0;

    /** Granularity of a single demand-paging transfer. */
    virtual PageSize transferGranularity() const { return PageSize::Base; }

    /** Physical bytes currently held on behalf of applications. */
    virtual std::uint64_t allocatedBytes() const = 0;

    /** Statistics. */
    virtual const MemoryManagerStats &stats() const = 0;

    /** Frame pool backing this manager (null if it doesn't use one). */
    virtual const FramePool *framePool() const { return nullptr; }

    /**
     * Binds this manager's counters into @p reg under "mm.*". Managers
     * come from a factory, so the runner calls this right after
     * construction -- the moral equivalent of the register-at-
     * construction rule (DESIGN.md §8). Overrides add design-specific
     * metrics and must call the base implementation.
     */
    virtual void
    registerMetrics(StatsRegistry &reg)
    {
        const MemoryManagerStats &s = stats();
        reg.bindCounter("mm.regionsReserved", s.regionsReserved);
        reg.bindCounter("mm.pagesBacked", s.pagesBacked);
        reg.bindCounter("mm.pagesReleased", s.pagesReleased);
        reg.bindCounter("mm.coalesceOps", s.coalesceOps);
        reg.bindCounter("mm.splinterOps", s.splinterOps);
        reg.bindCounter("mm.compactions", s.compactions);
        reg.bindCounter("mm.migrations", s.migrations);
        reg.bindCounter("mm.emergencySplinters", s.emergencySplinters);
        reg.bindCounter("mm.softGuaranteeViolations",
                        s.softGuaranteeViolations);
        reg.bindCounter("mm.outOfFrames", s.outOfFrames);
        reg.bindCounterFn("mm.allocatedBytes",
                          [this] { return allocatedBytes(); });
    }
};

}  // namespace mosaic

#endif  // MOSAIC_MM_MEMORY_MANAGER_H
